"""The digit automaton of theorem 1 and both digraph pairs against the
deletion sweep and the oracles.

Through p = 512 its reports must equal those of the dense deletion sweep
(``loop_oracles.hypomorphisms_reference``) field by field, on clean
tables and under faults in the tables that both read: one cell of each
class-table row the order reaches, in either variant, and two images
swapped in one ``_SIGMA4`` row; at 1024 under one planted fault; under
an edit to a level that keeps its bit, which theorem 1 sees and neither
pair does; and under an edit to a level beyond +-(n+1), which has no bit
and fails both pairs.  At p = 8 under every one-entry ``_SIGMA4`` edit,
and at 16 under an image of 5, theorem 1's report equals the triple loop
over the maps' unchecked closed form (``loop_oracles.theorem1_loops``).
Above, its first
failing triple under a planted class-table fault must fail under the
scalar oracles ``entry_at`` and ``sigma``, and no failing triple that
``sample_theorem1`` finds may sort before it.

Lemma 3 and the point-1 level check run the automaton on planes of its
letters, and the half swap reads the class table.  Through p = 512 each
reports exactly as its dense oracle on the entry grids and the map table,
on clean tables, under one-cell class-table faults and under every
``_SIGMA4`` exchange; a fault in a row that only orders above 8192 reach
passes at 8192 and fails at 2**20.  Every reader of the class table's
offset rows passes at 2**33, the last order whose offsets the table holds,
and refuses larger ones with a ValueError.
"""

import itertools
import json

import numpy as np
import pytest

import recon_census.blocks as blocks
import recon_census.deletion_maps as dm
import recon_census.digraph_builder as db
import recon_census.hypomorphism_verifier as hv
import recon_census.weight_matrix as wm
from recon_census.cli import main
from recon_census.errors import ContradictionError
from recon_census.report import VerificationReport
from recon_census.theorem1_automaton import decide_hypomorphisms

from loop_oracles import (
    hypomorphisms_reference,
    lemma3_loops,
    level_pairs,
    level_table_reference,
    swap_reference,
    theorem1_loops,
)

PLAIN = wm.MatrixVariant.PLAIN
STAR = wm.MatrixVariant.STAR
SWEPT_ORDERS = [4 << t for t in range(8)]  # 4 .. 512


@pytest.mark.parametrize("p", SWEPT_ORDERS)
def test_clean_equals_sweep(p):
    reports = decide_hypomorphisms(p)
    assert reports == hypomorphisms_reference(p)
    names = ["theorem1", "hypo-sigma-tournament"] + ["hypo-sigma-variant"] * (p >= 8)
    assert reports == [VerificationReport(name, p, None, p * (p - 1) ** 2) for name in names]


@pytest.mark.parametrize("p", [8, 16])
def test_sigma4_read_as_the_closed_form_reads_it(tables, p):
    # an image of 5 overflows its 2-bit field in the closed form's packed
    # residues; the automaton must decide that sigma, not the raw table's
    tables.sigma_entry(0, 1, 5)
    report = decide_hypomorphisms(p)[0]
    assert report == theorem1_loops(p)
    assert report.counterexample == (1, 2, 3, 3, -2)


def test_every_sigma4_edit_read_as_the_closed_form_reads_it(tables, monkeypatch):
    # every one-entry edit at p = 8, the diagonal and values outside 1..4
    # included, and the clean table
    clean = blocks._SIGMA4
    edits = [None] + [
        (k, x, v) for k in range(4) for x in range(4) for v in range(-1, 7)
        if v != dm._sigma4()[k, x]
    ]
    for edit in edits:
        monkeypatch.setattr(blocks, "_SIGMA4", clean)
        if edit is not None:
            tables.sigma_entry(*edit)
        assert decide_hypomorphisms(8)[0] == theorem1_loops(8), edit


@pytest.mark.parametrize("p", SWEPT_ORDERS)
def test_class_table_faults_equal_sweep(tables, p):
    rng = np.random.default_rng(p)
    for variant in (PLAIN, STAR):
        for row in wm._reached_rows(p):
            r, c = (int(v) for v in rng.integers(0, 4, size=2))
            tables.class_cell(variant, row, r, c)
            reports = decide_hypomorphisms(p)
            assert not reports[0].passed, (variant, row, r, c)
            assert reports == hypomorphisms_reference(p), (variant, row, r, c)


@pytest.mark.parametrize("p", SWEPT_ORDERS)
@pytest.mark.parametrize("k", range(4))
def test_sigma4_swaps_equal_sweep(tables, p, k):
    kept = [x for x in range(4) if x != k]
    tables.sigma_swap(k, kept[0], kept[-1])
    reports = decide_hypomorphisms(p)
    assert not reports[0].passed
    assert reports == hypomorphisms_reference(p)


def test_planted_fault_equals_sweep_at_1024(tables):
    # one starred cell negated in the row of the top offset 2**(n-3): its
    # sign, so its tournament bit, changes
    p = 1024
    tables.class_cell(STAR, wm._reached_rows(p)[-2], 1, 2)
    reports = decide_hypomorphisms(p)
    assert [r.passed for r in reports[:2]] == [False, False]
    assert reports == hypomorphisms_reference(p)


@pytest.mark.parametrize("p", [8, 64, 512])
def test_level_edit_keeping_its_bits_fails_theorem1_alone(tables, p):
    # a starred 3 becomes 4: both assignments give 3 and 4 one bit, so the
    # pairs, which compare bits, pass where theorem 1, which compares
    # levels, fails
    row = wm._reached_rows(p)[0]
    r, c = (int(v) for v in np.argwhere(wm._class_blocks(STAR)[row] == 3)[0])
    tables.class_cell(STAR, row, r, c, 4)
    reports = decide_hypomorphisms(p)
    assert [(rep.check_name, rep.passed) for rep in reports] == [
        ("theorem1", False),
        ("hypo-sigma-tournament", True),
        ("hypo-sigma-variant", True),
    ]
    assert reports[0].counterexample[3:] == (3, 4)
    assert reports == hypomorphisms_reference(p)


def test_level_beyond_the_domain_fails_both_pairs(tables):
    # a starred -2 becomes 5 at p = 8, whose levels stop at +-4: level 5
    # has no bit (a bit table would read it as -4's), so both pairs fail
    # where theorem 1 does, and each counterexample names the raw level
    p = 8
    row = wm._reached_rows(p)[0]
    assert wm._class_blocks(STAR)[row, 0, 1] == -2
    tables.class_cell(STAR, row, 0, 1, 5)
    reports = decide_hypomorphisms(p)
    assert [(rep.check_name, rep.passed) for rep in reports] == [
        ("theorem1", False),
        ("hypo-sigma-tournament", False),
        ("hypo-sigma-variant", False),
    ]
    assert [rep.counterexample for rep in reports] == [
        (1, 5, 3, -2, 5),
        (1, 5, 3, 0, 5),
        (1, 5, 3, 0, 5),
    ]
    assert reports == hypomorphisms_reference(p)


@pytest.mark.parametrize("level", [-7, 100, -128])
@pytest.mark.parametrize("variant", [PLAIN, STAR])
def test_levels_beyond_the_domain_equal_sweep(tables, variant, level):
    p = 16
    tables.class_cell(variant, wm._reached_rows(p)[-1], 0, 1, level)
    reports = decide_hypomorphisms(p)
    assert not any(rep.passed for rep in reports)
    assert reports == hypomorphisms_reference(p)


def scalar_class(p, i, j):
    """Class-table row of entry (i, j), from the offset by scalar arithmetic."""
    d = ((j - 1) >> 2) - ((i - 1) >> 2)
    if d == 0:
        return wm._reached_rows(p)[0]
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
    value = wm._class_blocks(STAR)[row][cell] + 1
    tables.class_cell(STAR, row, *cell, value)
    report = decide_hypomorphisms(p)[0]
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


def test_command_line_reports_the_automaton(tables, capsys):
    p = 1024
    tables.class_cell(PLAIN, wm._reached_rows(p)[-1], 0, 3)
    assert main(["verify", "--p", str(p), "--checks", "theorem1"]) == 1
    (rep,) = json.loads(capsys.readouterr().out)["reports"]
    assert rep == decide_hypomorphisms(p)[0].to_json_dict()
    assert rep["outcome"] == "fail" and "seed" not in rep


def plane_reports(p):
    """lemma 3's report, then from p = 8 the ContradictionError messages of
    the half swap and the point-1 level check (None where each holds) and
    the point-1 level pairs, as a list of (u, v)."""
    out = [hv.check_lemma3(p)]
    if p >= 8:
        for check in (db.swap_involution, db._level_table, db._check_point1_levels):
            try:
                check(p)
                out.append(None)
            except ContradictionError as exc:
                out.append(str(exc))
        # forced-iso's check, which builds no witness, reports as the witness's
        assert out.pop() == out[-1]
        out.append(np.stack(db._point1_pairs(p), axis=1).tolist())
    return out


def dense_plane_reports(p):
    """``plane_reports(p)`` by the dense oracles."""
    plain, star = (wm.entry_grid(p, v) for v in (PLAIN, STAR))
    out = [lemma3_loops(p, plain, star, dm.build_all_maps(p))]
    if p >= 8:
        pairs = level_pairs(plain, star, dm.extend_sigma_p1(p) - 1)
        out += [swap_reference(p), level_table_reference(p), pairs.tolist()]
    return out


def reached_cell_faults(p):
    """Every one-cell fault (variant, row, r, c) of the rows order p reaches."""
    return [
        (variant, int(row), r, c)
        for variant in (PLAIN, STAR)
        for row in wm._reached_rows(p)
        for r in range(4)
        for c in range(4)
    ]


@pytest.mark.parametrize("p", SWEPT_ORDERS)
def test_planes_clean_equal_dense(p):
    reports = plane_reports(p)
    assert reports == dense_plane_reports(p)
    clean = [VerificationReport("lemma3", p, None, 2 * p * (p - 1))]
    assert reports[:3] == clean + [None, None] * (p >= 8)


@pytest.mark.parametrize("p, seeded", [(8, None), (16, None), (32, 40), (64, 40)])
def test_planes_under_cell_faults_equal_dense(tables, p, seeded):
    # every one-cell fault of the reached rows, or a seeded share of them
    faults = reached_cell_faults(p)
    if seeded is not None:
        rng = np.random.default_rng(p)
        faults = [faults[t] for t in rng.choice(len(faults), size=seeded, replace=False)]
    failed = set()
    for fault in faults:
        tables.class_cell(*fault)
        reports = plane_reports(p)
        assert reports == dense_plane_reports(p), fault
        verdicts = (reports[0].passed, reports[1] is None, reports[2] is None)
        failed |= {check for check, passed in enumerate(verdicts) if not passed}
    # each check fails under some fault
    assert failed == {0, 1, 2}


@pytest.mark.parametrize("p", SWEPT_ORDERS[:5])
def test_planes_under_sigma4_swaps_equal_dense(tables, p):
    # every exchange of two images in one row of the order-4 maps
    for k in range(4):
        kept = [x for x in range(4) if x != k]
        for x, y in itertools.combinations(kept, 2):
            tables.sigma_swap(k, x, y)
            reports = plane_reports(p)
            assert reports == dense_plane_reports(p), (k, x, y)
            assert not reports[0].passed
            if p >= 8:
                # the half swap reads no map; the point-1 check fails
                # exactly when the map deleting point 1 changes
                assert reports[1] is None
                assert (reports[2] is None) == (k != 0)
            tables.sigma_swap(k, x, y)  # undone


DEEP = 1 << 20


def deep_fault(tables):
    """Negate plain cell (0, 1) in the row of block offset 2**17, p/8 at
    order 2**20, which no order up to 2**19 reaches."""
    row = int(wm._reached_rows(DEEP)[-2])
    assert row not in wm._reached_rows(wm.DENSE_ORDER_LIMIT)
    tables.class_cell(PLAIN, row, 0, 1)
    return row


def test_deep_fault_passes_at_the_dense_limit(tables):
    deep_fault(tables)
    p = wm.DENSE_ORDER_LIMIT
    passed = VerificationReport("lemma3", p, None, 2 * p * (p - 1))
    assert plane_reports(p)[:3] == [passed, None, None]


def test_deep_fault_fails_above_it(tables):
    row = deep_fault(tables)
    p = DEEP
    lemma3, swap, point1, _ = plane_reports(p)
    assert swap == f"half-swap failed the level-swap identity at p={p} (plain)"
    assert point1.startswith(f"extended point-1 mapping is not an isomorphism at p={p}")
    assert lemma3.checked_count == 2 * p * (p - 1) and not lemma3.passed
    _, i, j, lhs, rhs = lemma3.counterexample
    # the first equality fails at an entry of the faulted class
    assert scalar_class(p, i, j) == row and ((i - 1) & 3, (j - 1) & 3) == (0, 1)
    sign = -1 if abs(i - j) == p // 2 else 1
    assert lhs == int(wm.entry_values(p, PLAIN, i, j))
    assert rhs == sign * int(wm.entry_values(p, STAR, i, dm.sigma_values(p, i, j)))
    assert lhs != rhs


def test_deep_fault_on_the_command_line(tables, capsys):
    deep_fault(tables)
    args = ["verify", "--checks", "lemma3,swap,forced-iso"]
    assert main([*args, "--p", str(wm.DENSE_ORDER_LIMIT)]) == 0
    capsys.readouterr()
    assert main([*args, "--p", str(DEEP)]) == 1
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [(r["check"], r["outcome"]) for r in reports] == [
        ("lemma3", "fail"),
        ("swap", "fail"),
        ("forced-iso", "fail"),
    ]


REACH = 1 << 33  # the class table holds block offsets up to +-2**30


@pytest.mark.parametrize(
    "check",
    [
        decide_hypomorphisms,
        hv.check_lemma3,
        db._check_point1_levels,
        blocks._check_tournaments,
        db._check_half_swap,
    ],
)
def test_class_table_reach(check):
    assert blocks._CLASS_TABLE_ORDER_LIMIT == REACH
    # the last order whose offsets the class table holds passes: a report,
    # a list of them, or None from the checks that raise on a failure
    result = check(REACH)
    assert all(r.passed for r in (result if isinstance(result, list) else [result] * bool(result)))
    for p in (2 * REACH, 1 << 64):
        with pytest.raises(ValueError, match=r"offsets up to \+-2\*\*30, so orders up to 2\*\*33"):
            check(p)


def test_theorem1_at_the_reach():
    report = decide_hypomorphisms(REACH)[0]
    assert report.passed and report.checked_count == REACH * (REACH - 1) ** 2
    with pytest.raises(ValueError, match=str(2 * REACH)):
        decide_hypomorphisms(2 * REACH)
