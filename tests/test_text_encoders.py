"""The vectorized text encoders against their per-element forms.

``WeightedMatrix.to_csv``, ``Digraph.to_csv`` and ``sigma_table_tsv`` share
one numpy kernel (``weight_matrix._text_grid``), ``Digraph.to_dot`` gathers
its arc lines the same way and ``Digraph.to_digraph6`` packs its payload
without a per-character loop.  ``weight_matrix.csv_blocks`` prints the
weighted CSV from four row templates, with the dense ``to_csv`` as its
oracle.  The per-element bodies
they replaced are kept here as oracles, and the orders run up to 1024 so
that 3-character weights (from p = 512) and 3- and 4-digit images meet
the kernel's padding and row blocks.  ``Digraph.is_tournament``, a row-block
scan, is checked against its whole-matrix form where the blocks are made
small.
"""

import hashlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recon_census.blocks as blocks
import recon_census.deletion_maps as dm
from recon_census.cli import main
from recon_census.deletion_maps import sigma_table_tsv
from recon_census.blocks import _encode_count, csv_blocks
from recon_census.digraph_builder import (
    Digraph,
    apply_assignment,
    standard_pair,
    tournament_assignment,
    tournament_rows,
    variant_assignment,
    variant_rows,
)
from recon_census.iso_engine import deck
from recon_census.weight_matrix import (
    MatrixVariant,
    WeightedMatrix,
    _text_grid,
    build_dense,
)

ORDERS = [4, 8, 16, 32, 64, 128, 256, 512, 1024]


def csv_reference(grid: np.ndarray) -> str:
    """Per-cell ``str()`` form of a comma-separated grid."""
    return "".join(",".join(str(int(v)) for v in row) + "\n" for row in grid)


def sigma_tsv_reference(p: int) -> str:
    """Per-cell form of the deletion-map table, 'X' where i = k."""
    columns = dm.build_all_maps(p)
    lines = []
    for i in range(1, p + 1):
        cells = ["X" if i == k else str(int(columns[k - 1][i - 1])) for k in range(1, p + 1)]
        lines.append("\t".join(cells) + "\n")
    return "".join(lines)


def digraph6_reference(g: Digraph) -> str:
    """Per-character ``chr()`` form of the digraph6 payload."""
    bits = g.adjacency.reshape(-1)
    pad = (-bits.size) % 6
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    groups = bits.reshape(-1, 6) @ (1 << np.arange(5, -1, -1, dtype=np.int32))
    body = "".join(chr(int(g) + 63) for g in groups)
    return "&" + _encode_count(g.order) + body


def dot_reference(g: Digraph, name: str) -> str:
    """Per-arc ``f-string`` form of the Graphviz text."""
    lines = [f"digraph {name} {{"] + [f"  {i};" for i in range(1, g.order + 1)]
    rows, cols = np.nonzero(g.adjacency)
    lines += [f"  {i + 1} -> {j + 1};" for i, j in zip(rows.tolist(), cols.tolist())]
    return "\n".join(lines + ["}"]) + "\n"


def is_tournament_reference(g: Digraph) -> bool:
    """Whole-matrix form: exactly one arc between every two distinct points."""
    a = g.adjacency
    off = ~np.eye(g.order, dtype=bool)
    return bool(np.all((a + a.T)[off] == 1))


class TestKernel:
    def test_mixed_token_widths(self, monkeypatch):
        codes = np.array([[0, 1, 2], [2, 2, 0], [1, 0, 1]])
        lines = ["X\t-10\t7\n", "7\t7\tX\n", "-10\tX\t-10\n"]
        text = _text_grid(3, codes.__getitem__, ["X", "-10", "7"], "\t")
        assert list(text) == ["".join(lines)]
        # a block counts the 4 gathered bytes of each cell: one row of 12
        monkeypatch.setattr(blocks, "_BLOCK_CELLS", 12)
        assert list(_text_grid(3, codes.__getitem__, ["X", "-10", "7"], "\t")) == lines

    def test_single_cell_and_empty_grid(self):
        assert list(_text_grid(1, np.zeros((1, 1), int).__getitem__, ["ab"], ",")) == ["ab\n"]
        assert list(_text_grid(0, np.zeros((0, 0), int).__getitem__, ["0"], ",")) == []

    def test_row_blocks_join_seamlessly(self, monkeypatch):
        m = build_dense(64, MatrixVariant.STAR)
        whole = m.to_csv()
        # an odd-order card: its rows do not end on 6-bit group boundaries
        g = standard_pair(64)[1]
        digraphs = [g, g.delete_point(5)]
        # one pair of points with both arcs or neither, on either side of
        # block seams: not tournaments
        for i, j in ((0, 1), (3, 60), (40, 41), (62, 63)):
            a = g.adjacency.copy()
            a[j, i] = a[i, j]
            digraphs.append(Digraph(64, a))
        for cells in (1, 6, 7, 64, 65, 1000):
            monkeypatch.setattr(blocks, "_BLOCK_CELLS", cells)
            assert m.to_csv() == whole, cells
            for d in digraphs:
                assert d.to_digraph6() == digraph6_reference(d), cells
                assert d.to_dot("G") == dot_reference(d, "G"), cells
                assert d.is_tournament() == is_tournament_reference(d), cells
        assert [d.is_tournament() for d in digraphs] == [True] * 2 + [False] * 4


class TestWeightedCsv:
    @pytest.mark.parametrize("variant", list(MatrixVariant))
    @pytest.mark.parametrize("p", ORDERS)
    def test_matches_per_cell_form(self, p, variant):
        m = build_dense(p, variant)
        assert m.to_csv() == csv_reference(m.entries)

    def test_three_character_tokens_appear(self):
        # the level bound reaches 10 at p = 512
        for variant in MatrixVariant:
            fields = set(build_dense(512, variant).to_csv().replace("\n", ",").split(","))
            assert {"-10", "10"} <= fields

    @pytest.mark.parametrize("i, j", [(0, 1), (255, 256), (256, 1023), (1023, 0)])
    def test_one_corrupted_cell_changes_only_its_lines(self, i, j):
        # 0-based cell (i, j) and its antisymmetric twin (j, i); rows 255
        # and 256 straddle a row block at p = 1024, column 1023 ends a line
        p = 1024
        clean = build_dense(p, MatrixVariant.PLAIN)
        entries = clean.entries.copy()
        value = -10 if entries[i, j] != -10 else 9
        entries[i, j], entries[j, i] = value, -value
        bad = WeightedMatrix(p, MatrixVariant.PLAIN, entries)
        want, got = clean.to_csv().splitlines(), bad.to_csv().splitlines()
        assert len(got) == p
        assert [r for r in range(p) if got[r] != want[r]] == sorted({i, j})
        for row, col, v in ((i, j, value), (j, i, -value)):
            w, g = want[row].split(","), got[row].split(",")
            assert [c for c in range(p) if g[c] != w[c]] == [col]
            assert g[col] == str(v)


class TestSlicedCsv:
    """``csv_blocks`` slices each row from a residue template of the offset
    table; the dense matrix's ``csv_blocks`` is its oracle."""

    @pytest.mark.parametrize("variant", list(MatrixVariant))
    @pytest.mark.parametrize("p", ORDERS + [2048])
    def test_matches_dense_route(self, p, variant):
        m = build_dense(p, variant)
        # the same pieces, not only the same text
        assert list(csv_blocks(p, variant)) == list(m.csv_blocks())
        assert "".join(csv_blocks(p, variant)) == m.to_csv()

    @pytest.mark.parametrize("cells", [1, 150, 1000, 10000])
    def test_block_seams_leave_the_bytes_unchanged(self, monkeypatch, cells):
        monkeypatch.setattr(blocks, "_BLOCK_CELLS", cells)
        for p in ORDERS + [2048]:
            for variant in MatrixVariant:
                got = "".join(csv_blocks(p, variant))
                assert got == build_dense(p, variant).to_csv(), (p, variant, cells)

    def spied(self, monkeypatch, tmp_path, *args):
        """The dense builders called, in any ``recon_census`` module, while
        the command line runs ``args``."""
        calls = []
        modules = [m for n, m in sys.modules.items() if n.startswith("recon_census.")]
        for module in modules:
            for name in {"build_dense", "entry_grid"} & set(vars(module)):

                def spy(*a, name=name, real=getattr(module, name), **kw):
                    calls.append(name)
                    return real(*a, **kw)

                monkeypatch.setattr(module, name, spy)
        out = tmp_path / "out.csv"
        assert main([*args, "--out", str(out)]) == 0
        return calls

    @pytest.mark.parametrize("p", [4, 64, 2048])
    def test_generate_builds_no_dense_matrix(self, monkeypatch, tmp_path, p):
        args = ("generate", "--p", str(p), "--kind", "weighted", "--variant", "both")
        assert self.spied(monkeypatch, tmp_path, *args) == []

    def test_spies_see_the_dense_route(self, monkeypatch, tmp_path):
        # the census stacks the assigned digraphs of every row
        calls = self.spied(monkeypatch, tmp_path, "census", "--p", "8")
        assert set(calls) == {"build_dense", "entry_grid"}


def _file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _digraph_cases(orders):
    """(p, kind) of each digraph kind at each of ``orders`` where it exists."""
    return [
        (p, kind)
        for p in orders
        for kind in ("tournament", "variant-digraph")
        if p >= 8 or kind == "tournament"
    ]


def _assigned(p, variant, assignment):
    """The order-p ``variant`` digraph of ``assignment(n)``, applied to the
    dense matrix."""
    return apply_assignment(build_dense(p, variant), assignment(p.bit_length() - 1))


class TestTemplateDigraphs:
    """Digraph ``generate`` slices each row from bit templates
    (``tournament_rows``, ``variant_rows``); the ``*_blocks`` writers of
    the dense digraphs, each an assignment applied to a dense matrix, are
    its oracle."""

    KINDS = {
        "tournament": ("G", lambda p, v: _assigned(p, v, tournament_assignment)),
        "variant-digraph": ("D", lambda p, v: _assigned(p, v, variant_assignment)),
    }

    @pytest.mark.parametrize("p, kind", _digraph_cases(ORDERS))
    def test_rows_match_the_dense_adjacency(self, p, kind):
        rows = {"tournament": tournament_rows, "variant-digraph": variant_rows}[kind]
        for variant in MatrixVariant:
            dense = self.KINDS[kind][1](p, variant).adjacency
            got = rows(p, variant)
            assert got(slice(0, p)).dtype == np.uint8
            assert np.array_equal(got(slice(0, p)), dense)
            # blocks that start and end inside a residue group of 4 rows
            for start, stop in ((1, 2), (3, 7), (p - 3, p)):
                assert np.array_equal(got(slice(start, stop)), dense[start:stop])

    @pytest.mark.parametrize("p, kind", _digraph_cases(ORDERS + [2048]))
    def test_generate_matches_dense_route(self, tmp_path, p, kind):
        tag, build = self.KINDS[kind]
        dense = {v: build(p, v) for v in MatrixVariant}
        out = tmp_path / "out.txt"
        for fmt in ("csv", "dot", "d6"):
            for selected in ("plain", "star", "both"):
                variants = list(MatrixVariant) if selected == "both" else [MatrixVariant(selected)]
                want = hashlib.sha256()
                for k, v in enumerate(variants):
                    g = dense[v]
                    suffix = "s" if v is MatrixVariant.STAR else ""
                    if fmt == "csv" and k:
                        want.update(b"\n")
                    blocks = {
                        "csv": g.csv_blocks,
                        "dot": lambda: g.dot_blocks(f"{tag}{p}{suffix}"),
                        "d6": g.digraph6_blocks,
                    }[fmt]()
                    for piece in blocks:
                        want.update(piece.encode())
                    if fmt == "d6":
                        want.update(b"\n")
                args = ["generate", "--p", str(p), "--kind", kind, "--variant", selected]
                assert main([*args, "--format", fmt, "--out", str(out)]) == 0
                assert _file_digest(out) == want.hexdigest(), (fmt, selected)


class TestSigmaTsv:
    @pytest.mark.parametrize("p", ORDERS)
    def test_matches_per_cell_form(self, p):
        assert sigma_table_tsv(p) == sigma_tsv_reference(p)

    @pytest.mark.parametrize("p", ORDERS + [2048])
    def test_matches_the_map_table(self, p):
        # the table of ``build_all_maps`` through the same kernel: the
        # dense route the closed form replaced
        tables = dm.build_all_maps(p)
        tokens = ["X", *map(str, range(1, p + 1))]
        dense = list(_text_grid(p, lambda rows: tables[:, rows].T, tokens, "\t"))
        assert list(dm.sigma_tsv_blocks(p)) == dense
        # the numpy-free text of ``export``, piece for piece
        assert list(blocks.sigma_tsv_blocks(p)) == dense

    def test_four_digit_images_appear(self):
        rows = sigma_table_tsv(1024).splitlines()
        assert rows[0].split("\t")[0] == "X"
        assert "1024" in rows[0].split("\t")


class TestDigraphEncoders:
    @pytest.mark.parametrize("p", [4, 8, 16, 32, 64, 128, 256, 512])
    def test_standard_pair(self, p):
        for g in standard_pair(p):
            assert g.to_csv() == csv_reference(g.adjacency)
            assert g.to_digraph6() == digraph6_reference(g)
            assert g.to_dot("G") == dot_reference(g, "G")

    @pytest.mark.parametrize("p", [4, 8, 16, 32, 64])
    def test_deck_cards(self, p):
        for g in standard_pair(p):
            for card in deck(g):
                assert card.to_csv() == csv_reference(card.adjacency)
                assert card.to_digraph6() == digraph6_reference(card)
                assert card.to_dot("c") == dot_reference(card, "c")

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_adjacency(self, data):
        # orders 0..20 cover every payload length mod 6; arcs are free, so
        # most draws are not tournaments
        n = data.draw(st.integers(0, 20))
        bits = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        a = np.array(bits, dtype=np.uint8).reshape(n, n)
        np.fill_diagonal(a, 0)
        g = Digraph(n, a)
        assert g.to_csv() == csv_reference(a)
        assert g.to_digraph6() == digraph6_reference(g)
        assert g.to_dot("G") == dot_reference(g, "G")
        assert Digraph.from_digraph6(g.to_digraph6()) == g
