"""Acceptance suite: every exit criterion, exact (zero-tolerance) checks.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion with its runtime.
"""

import time

import numpy as np

from recon_census.deletion_maps import (
    check_lemma2,
    sigma,
    sigma_reference,
    sigma_table_tsv,
)
from recon_census.digraph_builder import (
    assignment_census,
    assignment_from_bits,
    build_dense,
    forced_isomorphism,
    standard_pair,
    swap_involution,
    threshold_scores,
    tournament_assignment,
    variant_assignment,
    variant_pair,
)
from recon_census.hypomorphism_verifier import (
    check_lemma3,
    check_theorem1,
    sample_theorem1,
)
from recon_census.iso_engine import (
    IsoStatus,
    are_isomorphic,
    decks_match_independent,
    verify_hypomorphic_by_sigma,
    verify_nonisomorphic_inductive,
)
from recon_census.weight_matrix import MatrixVariant, check_lemma1, entry_at

from conftest import load_matrix_fixture, load_sigma_fixture

PLAIN = MatrixVariant.PLAIN
STAR = MatrixVariant.STAR


def _report(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} ({label}): PASS in {elapsed:.2f}s (budget {budget:g}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_golden_fixtures():
    started = time.perf_counter()
    for p in (4, 8, 16):
        for variant, name in ((PLAIN, "plain"), (STAR, "star")):
            fixture = load_matrix_fixture(p, name)
            assert np.array_equal(build_dense(p, variant).entries, fixture), (p, name)
            expected_csv = "".join(
                ",".join(str(int(v)) for v in row) + "\n" for row in fixture
            )
            assert build_dense(p, variant).to_csv() == expected_csv
        assert sigma_table_tsv(p) == load_sigma_fixture(p), p
    _report(1, "golden fixtures", started, 1.0)


def test_criterion_2_lemma_suite():
    started = time.perf_counter()
    orders = (8, 16, 32, 64, 128, 256)
    for p in orders:
        assert check_lemma1(p).passed, p
        assert check_lemma2(p).passed, p
    for p in (4,) + orders:
        assert check_lemma3(p).passed, p
    _report(2, "lemma suite exhaustive to p=256", started, 30.0)


def test_criterion_3_theorem1():
    started = time.perf_counter()
    for p in (4, 8, 16, 32, 64, 128):
        report = check_theorem1(p)
        assert report.passed, p
        assert report.checked_count == p * (p - 1) ** 2, p
    sampled = sample_theorem1(4096, 1_000_000, rng_seed=1)
    assert sampled.passed
    assert sampled.checked_count == 1_000_000
    _report(3, "hypomorphism identity", started, 60.0)


def test_criterion_4_theorem2():
    started = time.perf_counter()
    orders = [4 << k for k in range(11)]  # 4 .. 4096
    for p in orders:
        trace = verify_nonisomorphic_inductive(p)
        assert trace.steps[-1].order == 4
    for p in (4, 8):
        g, h = standard_pair(p)
        assert are_isomorphic(g, h).status is IsoStatus.NON_ISOMORPHIC
    for p in orders[1:]:
        h = p // 2
        for variant, first in ((PLAIN, h), (STAR, h - 1)):
            got = threshold_scores(p, variant)
            assert list(got[:h]) == [first] * h, (p, variant)
            assert list(got[h:]) == [p - 1 - first] * h, (p, variant)
    _report(4, "non-isomorphism ladder to p=4096", started, 10.0)


def test_criterion_5_hypomorphic_digraph_pairs():
    started = time.perf_counter()
    for p in (8, 16, 32, 64):
        for pair in (standard_pair(p), variant_pair(p)):
            assert verify_hypomorphic_by_sigma(*pair).passed, p
    for p in (4, 8):
        g, h = standard_pair(p)
        assert decks_match_independent(g, h) is not None, p
    _report(5, "digraph pairs hypomorphic", started, 60.0)


def test_criterion_6_census_order_8():
    started = time.perf_counter()
    table = assignment_census(8)
    assert len(table.rows) == 256
    for row in table.rows:
        a = assignment_from_bits(3, row.assignment_bits)
        if a.value_for(4) == a.value_for(-4):
            assert row.isomorphic is True, row
            witness = forced_isomorphism(8, a)  # its order's level identity is checked
            assert witness is not None and witness[0] == 1
        else:
            assert forced_isomorphism(8, a) is None
    assert table.rows[int(tournament_assignment(3).bit_string, 2)].isomorphic is False
    assert table.rows[int(variant_assignment(3).bit_string, 2)].isomorphic is False
    for p in (8, 16, 32, 64, 128, 256):
        swap_involution(p)  # raises on any level-swap violation
    _report(6, "proper-assignment census at p=8", started, 120.0)


def test_criterion_7_cross_validation_of_derived_forms():
    started = time.perf_counter()
    mismatches = 0
    for p in (4, 8, 16, 32, 64, 128, 256):
        for variant in (PLAIN, STAR):
            dense = build_dense(p, variant)
            for i in range(1, p + 1):
                for j in range(1, p + 1):
                    if entry_at(p, variant, i, j) != dense.entry(i, j):
                        mismatches += 1
    for p in (4, 8, 16, 32, 64):
        for k in range(1, p + 1):
            for i in range(1, p + 1):
                if i != k and sigma(p, k, i) != sigma_reference(p, k, i):
                    mismatches += 1
    assert mismatches == 0
    _report(7, "derived closed forms vs literal constructions", started, 60.0)
