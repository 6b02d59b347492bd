"""The digit automaton of theorem 1 and both digraph pairs against the
deletion sweep and the oracles.

Through p = 512 its reports must equal those of the dense deletion sweep
(``loop_oracles.hypomorphisms_reference``) field by field, on clean
tables and under faults in the tables that both read: one cell of each
class-table row the order reaches, in either variant, and two images
swapped in one ``_SIGMA4`` row; at 1024 under one planted fault; under
an edit to a level that keeps its bit, which theorem 1 sees and neither
pair does; and under an edit to a level beyond +-(n+1), which has no bit
and fails both pairs.  Above, its first
failing triple under a planted class-table fault must fail under the
scalar oracles ``entry_at`` and ``sigma``, and no failing triple that
``sample_theorem1`` finds may sort before it.
"""

import json

import numpy as np
import pytest

import recon_census.deletion_maps as dm
import recon_census.hypomorphism_verifier as hv
import recon_census.weight_matrix as wm
from recon_census.cli import main
from recon_census.report import VerificationReport
from recon_census.theorem1_automaton import decide_hypomorphisms, decide_theorem1

from loop_oracles import hypomorphisms_reference

PLAIN = wm.MatrixVariant.PLAIN
STAR = wm.MatrixVariant.STAR
SWEPT_ORDERS = [4 << t for t in range(8)]  # 4 .. 512


@pytest.mark.parametrize("p", SWEPT_ORDERS)
def test_clean_equals_sweep(p):
    reports = decide_hypomorphisms(p)
    assert reports == hypomorphisms_reference(p)
    names = ["theorem1", "hypo-sigma-tournament"] + ["hypo-sigma-variant"] * (p >= 8)
    assert reports == [VerificationReport(name, p, None, p * (p - 1) ** 2) for name in names]
    assert decide_theorem1(p) == reports[0]


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
    r, c = (int(v) for v in np.argwhere(wm._CLASS_TABLE[STAR][row] == 3)[0])
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
    assert wm._CLASS_TABLE[STAR][row, 0, 1] == -2
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


def test_command_line_reports_the_automaton(tables, capsys):
    p = 1024
    tables.class_cell(PLAIN, wm._reached_rows(p)[-1], 0, 3)
    assert main(["verify", "--p", str(p), "--checks", "theorem1"]) == 1
    (rep,) = json.loads(capsys.readouterr().out)["reports"]
    assert rep == decide_theorem1(p).to_json_dict()
    assert rep["outcome"] == "fail" and "seed" not in rep
