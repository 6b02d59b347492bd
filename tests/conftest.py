from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest


FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def load_matrix_fixture(p: int, variant_name: str) -> np.ndarray:
    text = (FIXTURES / f"weighted_p{p}_{variant_name}.csv").read_text()
    return np.array(
        [[int(v) for v in line.split(",")] for line in text.splitlines()],
        dtype=np.int8,
    )


def load_sigma_fixture(p: int) -> str:
    return (FIXTURES / f"sigma_p{p}.tsv").read_text()


def swap_two_images(table: np.ndarray, k: int) -> np.ndarray:
    """Copy of the map table deleting k with the images of two kept points
    exchanged: still a bijection, so only the identities can break."""
    kept = [s for s in range(table.size) if s != k - 1]
    a, b = kept[1], kept[-2]
    out = table.copy()
    out[[a, b]] = out[[b, a]]
    return out


def swap_images_at_random(table: np.ndarray, rng, rows: int = 3) -> np.ndarray:
    """Copy of a (p, p) map table with, in ``rows`` seeded rows, the images
    of two kept points exchanged: every row stays a bijection, so only the
    identities can break."""
    p = table.shape[0]
    out = table.copy()
    for k in rng.choice(np.arange(1, p + 1), size=rows, replace=False):
        kept = np.delete(np.arange(p), k - 1)
        a, b = rng.choice(kept, size=2, replace=False)
        out[k - 1, [a, b]] = out[k - 1, [b, a]]
    return out


def patch_dense(monkeypatch, module, p, variant, edit) -> np.ndarray:
    """Feed ``module.build_dense`` an edited copy of the order-p ``variant``
    matrix it returns now, and return the copy's entries (still writable).

    ``edit`` changes the copied entries in place.  The copy is not a
    validated ``WeightedMatrix``, so one cell may change without its
    antisymmetric twin.  Other orders and variants come from the
    function patched over, so edits to both variants combine.
    """
    current = module.build_dense
    entries = current(p, variant).entries.copy()
    edit(entries)
    fake = SimpleNamespace(order=p, variant=variant, entries=entries)

    def patched(q, v):
        return fake if (q, v) == (p, variant) else current(q, v)

    monkeypatch.setattr(module, "build_dense", patched)
    return entries


def patch_case_table(monkeypatch, patched, modules) -> None:
    """Install ``patched`` as ``_offset_case_table`` in each of ``modules``,
    and make ``weight_matrix.entry_values`` (so ``entry_grid`` too) gather
    from it, so that the offset-table readers and the grid-form oracles of
    ``loop_oracles`` read one and the same, possibly corrupted, matrix.

    ``patched(p, variant)`` returns the order-p table, indexed
    [d + p/4 - 1, r, c] like ``_offset_case_table``.
    """
    import recon_census.weight_matrix as wm

    def entry_values(p, variant, i, j):
        a = np.asarray(i, dtype=np.int32) - 1
        b = np.asarray(j, dtype=np.int32) - 1
        offset = (b >> 2) - (a >> 2) + (p // 4 - 1)
        return patched(p, variant)[offset, a & 3, b & 3]

    for module in modules:
        monkeypatch.setattr(module, "_offset_case_table", patched)
    monkeypatch.setattr(wm, "entry_values", entry_values)


def class_blocks(table: bytes) -> np.ndarray:
    """A writable (66, 4, 4) int8 copy of one variant's class table, as
    ``blocks._CLASS_TABLE`` holds it; ``.tobytes()`` of the copy goes back."""
    return np.frombuffer(table, dtype=np.int8).reshape(66, 4, 4).copy()


@pytest.fixture
def tables(monkeypatch):
    """Edit the class table (``blocks._CLASS_TABLE``, which every reader
    reads) and ``blocks._SIGMA4`` in place of the library's.

    ``hypomorphism_verifier.build_dense`` reads unvalidated entry grids, so
    that a one-cell fault, which breaks antisymmetry, reaches the deletion
    sweep as it reaches the digit automaton.  No table is cached, so every
    call after an edit reads it.
    """
    import recon_census.blocks as blocks
    import recon_census.deletion_maps as dm
    import recon_census.hypomorphism_verifier as hv
    import recon_census.weight_matrix as wm

    monkeypatch.setattr(
        hv, "build_dense", lambda q, v: SimpleNamespace(entries=wm.entry_grid(q, v))
    )
    clean = {v: class_blocks(table) for v, table in blocks._CLASS_TABLE.items()}

    def class_cells(variant, row, cells):
        """The cells ``{(r, c): value}`` of one row of ``variant`` set, the
        other variant clean."""
        table = clean[variant].copy()
        for (r, c), value in cells.items():
            table[row, r, c] = value
        for v in clean:
            edited = table if v is variant else clean[v]
            monkeypatch.setitem(blocks._CLASS_TABLE, v, edited.tobytes())

    def class_cell(variant, row, r, c, value=None):
        """One cell of ``variant`` set to ``value`` (by default the cell
        negated, or 1 where it is 0), the other variant clean."""
        old = clean[variant][row, r, c]
        class_cells(variant, row, {(r, c): -old or 1 if value is None else value})

    def sigma_swap(k, x, y):
        """Swap the images of x and y in row k of ``_SIGMA4`` (0-based)."""
        table = dm._sigma4().copy()
        table[k, [x, y]] = table[k, [y, x]]
        monkeypatch.setattr(blocks, "_SIGMA4", table.tobytes())

    def sigma_entry(k, x, value):
        """Set the image of x in row k of ``_SIGMA4`` (0-based) to ``value``."""
        table = dm._sigma4().copy()
        table[k, x] = value
        monkeypatch.setattr(blocks, "_SIGMA4", table.tobytes())

    return SimpleNamespace(
        class_cells=class_cells,
        class_cell=class_cell,
        sigma_swap=sigma_swap,
        sigma_entry=sigma_entry,
    )
