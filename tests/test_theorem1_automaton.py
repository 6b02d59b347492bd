"""The digit automaton of theorem 1 against the deletion sweep and the oracles.

Through p = 512 its report must equal the sweep's (``check_theorem1``)
field by field, on clean tables and under faults in the tables that both
read: one cell of each class-table row the order reaches, in either
variant, and two images swapped in one ``_SIGMA4`` row.  Above, its first
failing triple under a planted class-table fault must fail under the
scalar oracles ``entry_at`` and ``sigma``, and no failing triple that
``sample_theorem1`` finds may sort before it.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

import recon_census.deletion_maps as dm
import recon_census.hypomorphism_verifier as hv
import recon_census.weight_matrix as wm
from recon_census.cli import main
from recon_census.report import VerificationReport
from recon_census.theorem1_automaton import decide_theorem1

PLAIN = wm.MatrixVariant.PLAIN
STAR = wm.MatrixVariant.STAR
SWEPT_ORDERS = [4 << t for t in range(8)]  # 4 .. 512


@pytest.fixture
def tables(monkeypatch):
    """Edit the class table and ``_SIGMA4`` in place of the library's.

    The sweep reads unvalidated entry grids, so that a one-cell fault,
    which breaks antisymmetry, reaches it as it reaches the automaton;
    the map table and dense caches are cleared around each test.
    """
    monkeypatch.setattr(
        hv, "build_dense", lambda q, v: SimpleNamespace(entries=wm.entry_grid(q, v))
    )
    dm.build_all_maps.cache_clear()
    wm._DENSE_CACHE.clear()
    clean = dict(wm._CLASS_TABLE)

    def class_cell(variant, row, r, c, value=None):
        """One cell of ``variant`` set to ``value`` (by default the cell
        negated, or 1 where it is 0), the other variant clean."""
        table = clean[variant].copy()
        table[row, r, c] = -table[row, r, c] or 1 if value is None else value
        table.setflags(write=False)
        for v in clean:
            monkeypatch.setitem(wm._CLASS_TABLE, v, table if v is variant else clean[v])

    def sigma_swap(k, x, y):
        table = dm._SIGMA4.copy()
        table[k, [x, y]] = table[k, [y, x]]
        monkeypatch.setattr(dm, "_SIGMA4", table)
        dm.build_all_maps.cache_clear()

    yield SimpleNamespace(class_cell=class_cell, sigma_swap=sigma_swap)
    dm.build_all_maps.cache_clear()
    wm._DENSE_CACHE.clear()


def reached_rows(p):
    """The class-table rows of the block offsets of order p: d = 0, and
    2m + (y = 3 mod 4) for d = y * 2**(m-1), 1 <= m <= n - 2."""
    n = p.bit_length() - 1
    zero = int(wm._offset_class(np.zeros(1, np.int32))[0])
    return [zero] + [2 * m + s for m in range(1, n - 1) for s in (0, 1)]


@pytest.mark.parametrize("p", SWEPT_ORDERS)
def test_clean_equals_sweep(p):
    report = decide_theorem1(p)
    assert report == hv.check_theorem1(p)
    assert report == VerificationReport("theorem1", p, None, p * (p - 1) ** 2)


@pytest.mark.parametrize("p", SWEPT_ORDERS)
def test_class_table_faults_equal_sweep(tables, p):
    rng = np.random.default_rng(p)
    for variant in (PLAIN, STAR):
        for row in reached_rows(p):
            r, c = (int(v) for v in rng.integers(0, 4, size=2))
            tables.class_cell(variant, row, r, c)
            report = decide_theorem1(p)
            assert not report.passed, (variant, row, r, c)
            assert report == hv.check_theorem1(p), (variant, row, r, c)


@pytest.mark.parametrize("p", SWEPT_ORDERS)
@pytest.mark.parametrize("k", range(4))
def test_sigma4_swaps_equal_sweep(tables, p, k):
    kept = [x for x in range(4) if x != k]
    tables.sigma_swap(k, kept[0], kept[-1])
    report = decide_theorem1(p)
    assert not report.passed
    assert report == hv.check_theorem1(p)


def scalar_class(p, i, j):
    """Class-table row of entry (i, j), from the offset by scalar arithmetic."""
    d = ((j - 1) >> 2) - ((i - 1) >> 2)
    if d == 0:
        return reached_rows(p)[0]
    x = (d & -d).bit_length() - 1
    return 2 * (x + 1) + ((d >> x) % 4 == 3)


@pytest.mark.parametrize("p", [1 << 20, wm.ORACLE_ORDER_LIMIT])
@pytest.mark.parametrize("top", [False, True], ids=["odd-offset-row", "top-row"])
def test_planted_fault_above_the_sweep(tables, p, top):
    # the row of the odd offsets d = 1 mod 4, met by every fourth block
    # pair, or the row of d = 2**(n-3), which only this order reaches
    n = p.bit_length() - 1
    row = 2 * (n - 2) if top else 2
    cell = (1, 2)
    value = wm._CLASS_TABLE[STAR][row][cell] + 1
    tables.class_cell(STAR, row, *cell, value)
    report = decide_theorem1(p)
    assert not report.passed
    assert report.checked_count == p * (p - 1) ** 2
    k, i, j, lhs, rhs = report.counterexample

    def entry(variant, r, c):
        """``entry_at`` with the planted cell."""
        hit = variant is STAR and scalar_class(p, r, c) == row
        hit = hit and ((r - 1) & 3, (c - 1) & 3) == cell
        return wm.entry_at(p, variant, r, c) + hit

    assert i != k and j != k
    assert lhs == entry(PLAIN, i, j)
    assert rhs == entry(STAR, dm.sigma(p, k, i), dm.sigma(p, k, j))
    assert lhs != rhs
    if top:
        # the fault sits at block offset 2**(n-3): so does the failure
        si, sj = dm.sigma(p, k, i), dm.sigma(p, k, j)
        assert ((sj - 1) >> 2) - ((si - 1) >> 2) == 1 << (n - 3)

    found = 0
    for seed in range(8):
        sampled = hv.sample_theorem1(p, 4000, rng_seed=seed)
        if not sampled.passed:
            found += 1
            assert sampled.counterexample[:3] > (k, i, j)
    assert found == (0 if top else 8)


def test_command_line_reports_the_automaton_above_the_sweep(tables, capsys):
    p = 1024
    tables.class_cell(PLAIN, reached_rows(p)[-1], 0, 3)
    assert main(["verify", "--p", str(p), "--checks", "theorem1"]) == 1
    (rep,) = json.loads(capsys.readouterr().out)["reports"]
    assert rep == decide_theorem1(p).to_json_dict()
    assert rep["outcome"] == "fail" and "seed" not in rep
