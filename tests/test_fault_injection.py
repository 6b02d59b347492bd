"""Corrupt one value behind each verifier and pin the reported counterexample.

The real constructions never fail their checks, so these tests patch the
evaluation seams to prove the violation scanners actually fire and report
the first offending coordinates deterministically.
"""

import json

import numpy as np
import pytest

import recon_census.deletion_maps as dm
import recon_census.digraph_builder as db
import recon_census.hypomorphism_verifier as hv
import recon_census.iso_engine as ie
import recon_census.weight_matrix as wm
from recon_census.cli import main
from recon_census.errors import ContradictionError

from conftest import patch_case_table, patch_dense, swap_two_images
from loop_oracles import (
    check_lemma1_reference,
    deletion_sweep_reference,
    halving_chain_reference,
)


def no_search(*args):
    """A census search seam that fails: the per-order checks come first."""
    raise AssertionError("searched before the per-order checks")


@pytest.fixture
def corrupt_plain_entry(monkeypatch):
    """Flip the sign of entry (2, 3), and of no other, in the order-8 plain
    matrix that lemma 3 and theorem 1 read."""

    def flip(entries):
        entries[1, 2] = -entries[1, 2]

    patch_dense(monkeypatch, hv, 8, wm.MatrixVariant.PLAIN, flip)


class TestLemma1Reporting:
    def test_detects_broken_quadrant(self, monkeypatch):
        real = wm.entry_grid

        def patched(p, variant, rows=None, cols=None):
            grid = real(p, variant, rows, cols).copy()
            if p == 16 and variant is wm.MatrixVariant.PLAIN and rows is not None:
                if rows[0] == 1 and cols[0] == 1 and rows.size == 8:
                    grid[2, 4] += 1  # poison the top-left quadrant view
            return grid

        monkeypatch.setattr(wm, "entry_grid", patched)
        report = check_lemma1_reference(16)
        assert not report.passed
        k, i, j, lhs, rhs = report.counterexample
        assert (k, i, j) == (0, 3, 5)
        assert lhs == rhs + 1


class TestLemma3Reporting:
    def test_detects_sign_violation(self, corrupt_plain_entry):
        report = hv.check_lemma3(8)
        assert not report.passed
        k, i, j, lhs, rhs = report.counterexample
        assert (k, i, j) == (0, 2, 3)
        assert lhs == -rhs


class TestTheorem1Reporting:
    def test_detects_identity_violation(self, corrupt_plain_entry):
        report = hv.check_theorem1(8)
        assert not report.passed
        k, i, j, lhs, rhs = report.counterexample
        assert k == 1 and (i, j) == (2, 3)
        assert lhs != rhs


class TestTheorem1Sweep:
    """``check_theorem1`` reports the same under the shared sweep and its reference."""

    @staticmethod
    def both_reports(p, monkeypatch):
        report = hv.check_theorem1(p)
        with monkeypatch.context() as m:
            m.setattr(hv, "_deletion_sweep", deletion_sweep_reference)
            assert hv.check_theorem1(p) == report
        return report

    def test_corrupt_plain_entry(self, corrupt_plain_entry, monkeypatch):
        report = self.both_reports(8, monkeypatch)
        assert not report.passed
        assert report.counterexample[:3] == (1, 2, 3)

    @pytest.mark.parametrize("p", [16, 64])
    @pytest.mark.parametrize("late", ["last", "first-upper"])
    def test_patched_map_table(self, monkeypatch, p, late):
        bad_k = p if late == "last" else p // 2 + 1
        tables = dm.build_all_maps(p).copy()
        tables[bad_k - 1] = swap_two_images(tables[bad_k - 1], bad_k)

        monkeypatch.setattr(hv, "build_all_maps", lambda q: tables)
        report = self.both_reports(p, monkeypatch)
        assert not report.passed
        assert report.counterexample[0] == bad_k
        assert report.checked_count == p * (p - 1) ** 2


class TestHypoSigmaReporting:
    @pytest.mark.parametrize("late", ["last", "first-upper"])
    def test_patched_map_table_fails_both_pairs(self, monkeypatch, capsys, late):
        # the table that ``check_hypomorphisms`` reads is the one the
        # command line's hypo-sigma check reports on
        p = 16
        bad_k = p if late == "last" else p // 2 + 1
        tables = dm.build_all_maps(p).copy()
        tables[bad_k - 1] = swap_two_images(tables[bad_k - 1], bad_k)

        monkeypatch.setattr(hv, "build_all_maps", lambda q: tables)
        assert main(["verify", "--p", str(p), "--checks", "hypo-sigma"]) == 1
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert [r["check"] for r in reports] == [
            "hypo-sigma-tournament",
            "hypo-sigma-variant",
        ]
        assert [r["counterexample"]["k"] for r in reports] == [bad_k, bad_k]

    @pytest.mark.parametrize("p", [8, 64])
    def test_starred_level_edit_keeping_its_bits(self, monkeypatch, capsys, p):
        # one starred level 3 becomes 4: theorem 1 fails, while both digraph
        # pairs, whose assignments read 3 and 4 as one bit, pass
        def edit(entries):
            i, j = np.argwhere(entries == 3)[0]
            entries[i, j] = 4

        patch_dense(monkeypatch, hv, p, wm.MatrixVariant.STAR, edit)
        assert main(["verify", "--p", str(p), "--checks", "theorem1,hypo-sigma"]) == 1
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert [(r["check"], r["outcome"]) for r in reports] == [
            ("theorem1", "fail"),
            ("hypo-sigma-tournament", "pass"),
            ("hypo-sigma-variant", "pass"),
        ]
        cex = reports[0]["counterexample"]
        assert (cex["lhs"], cex["rhs"]) == (3, 4)


class TestLemma2Reporting:
    def test_detects_corrupted_table(self, monkeypatch):
        tables = dm.build_all_maps(8).copy()
        # swap two images of the map deleting 2: still a bijection, breaks
        # the identities
        tables[1, [2, 4]] = tables[1, [4, 2]]

        monkeypatch.setattr(dm, "build_all_maps", lambda p: tables)
        report = dm.check_lemma2(8)
        assert not report.passed
        k = report.counterexample[0]
        assert k == 2


class TestSelfCheckingOperations:
    def test_swap_involution_contradiction(self, monkeypatch):
        def flip(entries):
            entries[0, 1] = -entries[0, 1]

        patch_dense(monkeypatch, db, 8, wm.MatrixVariant.PLAIN, flip)
        with pytest.raises(ContradictionError, match="half-swap failed"):
            db.swap_involution(8)

    @pytest.mark.parametrize("p", [8, 16, 64])
    def test_swap_involution_raises_on_any_one_cell_edit(self, monkeypatch, p):
        top = p.bit_length()  # the extreme level n + 1
        for variant in wm.MatrixVariant:
            entries = patch_dense(monkeypatch, db, p, variant, lambda e: None)
            for i, j in np.ndindex(p, p):
                old = entries[i, j]
                # the next level, cyclically: always a different value
                entries[i, j] = (old + top + 1) % (2 * top + 1) - top
                with pytest.raises(ContradictionError):
                    db.swap_involution(p)
                entries[i, j] = old
            assert np.array_equal(db.swap_involution(p), np.roll(np.arange(1, p + 1), p // 2))

    def test_census_checks_swap_before_any_search(self, monkeypatch):
        def broken(p):
            raise ContradictionError("half-swap failed")

        monkeypatch.setattr(db, "swap_involution", broken)
        monkeypatch.setattr(db, "_census_entry", no_search)
        with pytest.raises(ContradictionError, match="half-swap failed"):
            db.assignment_census(8)

    def test_sampled_check_reports_coordinates(self, monkeypatch):
        real = hv.entry_values

        def patched(p, variant, i, j):
            vals = np.asarray(real(p, variant, i, j)).copy()
            if variant is hv.MatrixVariant.STAR:
                vals = vals + 1  # desynchronize the starred side
            return vals

        monkeypatch.setattr(hv, "entry_values", patched)
        report = hv.sample_theorem1(64, 500, rng_seed=9)
        assert not report.passed
        k, i, j, lhs, rhs = report.counterexample
        assert lhs != rhs and 1 <= k <= 64


def _corrupt_class_table(
    monkeypatch, edit, order=16, which=wm.MatrixVariant.PLAIN
):
    """Apply ``edit`` to a copy of one offset table (by default the order-16
    plain one, whose offsets -3..3 are rows 0..6), in every namespace that
    reads the table; the entry oracle, and so the reference forms, read the
    edited copy too."""
    real = wm._offset_case_table

    def patched(p, variant):
        table = real(p, variant)
        if p == order and variant is which:
            table = table.copy()
            edit(table)
        return table

    patch_case_table(monkeypatch, patched, (wm, db, ie))


def _flip_positive_entry(table):
    # offset 1, residues (1, 0): a positive entry off the diagonal
    assert table[4, 1, 0] > 0
    table[4, 1, 0] = -table[4, 1, 0]


def _swap_opposite_signs(table):
    # offset 1, residue row 1: same positive count, different sign pattern
    assert table[4, 1, 0] > 0 > table[4, 1, 2]
    table[4, 1, [0, 2]] = table[4, 1, [2, 0]]


def _flip_order8_entry(table):
    # the order-8 table, offset 1 (row 2), residues (1, 0): a positive entry
    assert table[2, 1, 0] > 0
    table[2, 1, 0] = -table[2, 1, 0]


def _flip_starred_entry(table):
    # the starred order-16 table, offset 1, residues (0, 1): a positive entry
    assert table[4, 0, 1] > 0
    table[4, 0, 1] = -table[4, 0, 1]


def _swap_starred_signs(table):
    # the starred order-16 table, offset 1, residue row 0: same positive count
    assert table[4, 0, 1] > 0 > table[4, 0, 0]
    table[4, 0, [0, 1]] = table[4, 0, [1, 0]]


def _theorem2_error(p):
    with pytest.raises(ContradictionError) as info:
        ie.verify_nonisomorphic_inductive(p)
    return str(info.value)


class TestTheorem2Reporting:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                _flip_positive_entry,
                "score split failed at p=16 (plain): first mismatch at point 2",
            ),
            (_swap_opposite_signs, "induced first half at p=16 differs from p=8"),
        ],
    )
    def test_same_message_as_reference_form(self, monkeypatch, edit, message):
        _corrupt_class_table(monkeypatch, edit)
        assert _theorem2_error(16) == message
        assert halving_chain_reference(16) == message

    @pytest.mark.parametrize(
        "order, which, edit, message",
        [
            # the p = 16 level builds the order-8 table as its half-order one
            (
                8,
                wm.MatrixVariant.PLAIN,
                _flip_order8_entry,
                "induced first half at p=16 differs from p=8",
            ),
            (
                16,
                wm.MatrixVariant.STAR,
                _flip_starred_entry,
                "score split failed at p=16 (star): first mismatch at point 1",
            ),
            # the scores hold, so only the induced last half differs
            (
                16,
                wm.MatrixVariant.STAR,
                _swap_starred_signs,
                "induced last half at p=16 differs from p=8",
            ),
        ],
    )
    def test_fault_in_one_table_of_the_chain(
        self, monkeypatch, order, which, edit, message
    ):
        _corrupt_class_table(monkeypatch, edit, order, which)
        assert _theorem2_error(16) == message
        assert halving_chain_reference(16) == message

    def test_no_pass_is_cached(self, monkeypatch):
        # each call verifies every level afresh, so a fault that appears
        # after a clean run is still found
        ie.verify_nonisomorphic_inductive(16)
        _corrupt_class_table(monkeypatch, _flip_positive_entry)
        assert _theorem2_error(16).startswith("score split failed at p=16")
        monkeypatch.undo()
        ie.verify_nonisomorphic_inductive(16)
        g, _ = db.standard_pair(4)
        monkeypatch.setattr(ie, "standard_pair", lambda p: (g, g))
        assert _theorem2_error(16) == "order-4 pair failed the exhaustive base case"

    def test_cli_reports_failure(self, monkeypatch, tmp_path):
        _corrupt_class_table(monkeypatch, _flip_positive_entry)
        out = tmp_path / "report.json"
        args = ["verify", "--p", "16", "--checks", "theorem2", "--out", str(out)]
        assert main(args) == 1
        (report,) = json.loads(out.read_text())["reports"]
        assert report["outcome"] == "fail"


def _lemma1_edit(part, p):
    """(table order, edit) that breaks one lemma 1 identity at order p."""
    nb, nh = p // 4, p // 8

    def bump(row, r, c):
        def edit(table):
            table[row, r, c] += 1

        return edit

    return {
        # a quadrant class, offset p/8 - 1, off the diagonal
        "nesting": (p, bump(nb + nh - 2, 2, 0)),
        # the same class of the half-order table
        "half-table": (p // 2, bump(2 * nh - 2, 2, 0)),
        # offset p/4 - 1: reached only by the column shift
        "column-shift": (p, bump(2 * nb - 2, 1, 0)),
        # offset -(p/4 - 1): reached only by the row shift
        "row-shift": (p, bump(0, 1, 0)),
        # the diagonal of offset +-p/8 holds the extreme levels
        "extreme-up": (p, bump(nb + nh - 1, 1, 1)),
        "extreme-down": (p, bump(nb - nh - 1, 3, 3)),
    }[part]


class TestLemma1ClassTableReporting:
    def test_detects_broken_quadrant(self, monkeypatch):
        def edit(table):
            table[4, 2, 0] += 1  # offset 1, residues (2, 0): inside both quadrants

        _corrupt_class_table(monkeypatch, edit)
        report = wm.check_lemma1(16)
        assert not report.passed
        k, i, j, lhs, rhs = report.counterexample
        assert (k, i, j) == (0, 3, 5)
        assert lhs == rhs + 1

    @pytest.mark.parametrize("p", [8, 16, 64])
    @pytest.mark.parametrize("variant", list(wm.MatrixVariant))
    @pytest.mark.parametrize(
        "part",
        ["nesting", "half-table", "column-shift", "row-shift", "extreme-up", "extreme-down"],
    )
    def test_same_report_as_reference_form(self, monkeypatch, p, variant, part):
        order, edit = _lemma1_edit(part, p)
        _corrupt_class_table(monkeypatch, edit, order, variant)
        report = wm.check_lemma1(p)
        assert report == check_lemma1_reference(p)
        assert not report.passed and report.checked_count == 2 * p * p
        _, i, j, lhs, rhs = report.counterexample
        h = p // 2
        if part in ("nesting", "half-table"):
            assert i <= h and j <= h
        elif part == "column-shift":
            assert i <= h < j
        elif part == "row-shift":
            assert j <= h < i
        else:
            assert abs(i - j) == h
        assert lhs != rhs

    def test_cli_reports_failure(self, monkeypatch, tmp_path):
        _corrupt_class_table(monkeypatch, _flip_positive_entry)
        out = tmp_path / "report.json"
        args = ["verify", "--p", "16", "--checks", "lemma1", "--out", str(out)]
        assert main(args) == 1
        (report,) = json.loads(out.read_text())["reports"]
        assert report["outcome"] == "fail"


def corrupt_star_cell(monkeypatch, old, new):
    """Feed the order-8 starred dense table with its first cell at level
    ``old`` (and that cell's antisymmetric partner) moved to level ``new``.
    ``swap_involution`` still reads the clean matrices, so the census gets
    past it to the point-1 level check."""
    real = db.build_dense
    real_swap = db.swap_involution

    def patched(p, variant):
        m = real(p, variant)
        if p != 8 or variant is not wm.MatrixVariant.STAR:
            return m
        entries = m.entries.copy()
        i, j = np.argwhere(entries == old)[0]
        entries[i, j], entries[j, i] = new, -new
        return wm.WeightedMatrix(p, variant, entries)

    def swap_on_clean_matrices(p):
        with monkeypatch.context() as m:
            m.setattr(db, "build_dense", real)
            return real_swap(p)

    db._level_table.cache_clear()
    monkeypatch.setattr(db, "build_dense", patched)
    monkeypatch.setattr(db, "swap_involution", swap_on_clean_matrices)


@pytest.fixture
def corrupt_star_extreme_cell(monkeypatch):
    """A starred cell at the extreme level 4 moved to level 1, so the
    extended point-1 mapping no longer carries the forced rows' digraphs
    onto each other."""
    corrupt_star_cell(monkeypatch, 4, 1)
    yield
    db._level_table.cache_clear()


@pytest.fixture
def corrupt_star_level_two_cell(monkeypatch):
    """A starred cell moved from level 2 to level 3: a pair of non-extreme
    levels that the all-zero assignment alone would not tell apart."""
    corrupt_star_cell(monkeypatch, 2, 3)
    yield
    db._level_table.cache_clear()


class TestForcedRowFaults:
    def test_forced_isomorphism_raises(self, corrupt_star_extreme_cell):
        # extremes to 1, every other level to 0
        a = db.assignment_from_bits(3, "00010001")
        with pytest.raises(
            ContradictionError, match="at p=8: it sends plain level -4 onto starred level 1$"
        ):
            db.forced_isomorphism(8, a)

    def test_census_raises_before_any_search(self, corrupt_star_extreme_cell, monkeypatch):
        monkeypatch.setattr(db, "_census_entry", no_search)
        with pytest.raises(ContradictionError, match="not an isomorphism at p=8"):
            db.assignment_census(8)

    def test_cli_census_exits_3(self, corrupt_star_extreme_cell, capsys):
        assert main(["census", "--p", "8"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(
            "recon-census: internal error: ContradictionError: extended point-1 "
            "mapping is not an isomorphism at p=8"
        )


class TestNonExtremeLevelFault:
    """The point-1 level identity is checked once per order, so a stray
    pair of two non-extreme levels raises even for an assignment that
    gives both levels the same bit."""

    MESSAGE = (
        "extended point-1 mapping is not an isomorphism at p=8: "
        "it sends plain level -2 onto starred level -3"
    )

    def test_error_names_the_pair(self, corrupt_star_level_two_cell):
        with pytest.raises(ContradictionError) as info:
            db._level_table(8)
        assert str(info.value) == self.MESSAGE

    def test_forced_isomorphism_raises_for_all_zero(self, corrupt_star_level_two_cell):
        with pytest.raises(ContradictionError, match=self.MESSAGE):
            db.forced_isomorphism(8, db.assignment_from_bits(3, "0" * 8))

    def test_census_raises_before_any_search(self, corrupt_star_level_two_cell, monkeypatch):
        monkeypatch.setattr(db, "_census_entry", no_search)
        with pytest.raises(ContradictionError, match=self.MESSAGE):
            db.assignment_census(8)
