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
    assigned_pair,
    census_entry,
    check_lemma1_reference,
    deletion_sweep_reference,
    halving_chain_reference,
    hypomorphisms_reference,
    lemma2_dense,
)


def no_search(*args):
    """A census seam that fails: the per-order checks come first."""
    raise AssertionError("decided a row before the per-order checks")


@pytest.fixture
def corrupt_plain_entry(monkeypatch):
    """Flip the sign of entry (2, 3), and of no other, in the order-8 plain
    matrix that theorem 1's dense route reads."""

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
    def test_detects_sign_violation(self, tables):
        # the class-table cell of entry (2, 3) at p = 8, and of (6, 7)
        tables.class_cell(wm.MatrixVariant.PLAIN, int(wm._reached_rows(8)[0]), 1, 2)
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
    def test_patched_map_table_fails_both_pairs(self, monkeypatch, late):
        # the dense route reads the map table of ``build_all_maps``
        p = 16
        bad_k = p if late == "last" else p // 2 + 1
        tables = dm.build_all_maps(p).copy()
        tables[bad_k - 1] = swap_two_images(tables[bad_k - 1], bad_k)

        monkeypatch.setattr(hv, "build_all_maps", lambda q: tables)
        reports = hypomorphisms_reference(p)[1:]
        assert [r.check_name for r in reports] == [
            "hypo-sigma-tournament",
            "hypo-sigma-variant",
        ]
        assert [r.counterexample[0] for r in reports] == [bad_k, bad_k]

    @pytest.mark.parametrize("k", range(4))
    def test_swapped_sigma4_images_fail_both_pairs(self, tables, capsys, k):
        # the command line's twin: the digit automaton reads ``_SIGMA4``,
        # and reports both pairs as the dense route does
        p = 16
        kept = [x for x in range(4) if x != k]
        tables.sigma_swap(k, kept[0], kept[-1])
        assert main(["verify", "--p", str(p), "--checks", "hypo-sigma"]) == 1
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert [r["outcome"] for r in reports] == ["fail", "fail"]
        assert reports == [r.to_json_dict() for r in hypomorphisms_reference(p)[1:]]

    @pytest.mark.parametrize("p", [8, 64])
    def test_starred_level_edit_keeping_its_bits(self, monkeypatch, p):
        # one starred level 3 becomes 4 in the dense matrix: theorem 1
        # fails, while both digraph pairs, whose assignments read 3 and 4
        # as one bit, pass
        def edit(entries):
            i, j = np.argwhere(entries == 3)[0]
            entries[i, j] = 4

        patch_dense(monkeypatch, hv, p, wm.MatrixVariant.STAR, edit)
        reports = hypomorphisms_reference(p)
        assert [(r.check_name, r.passed) for r in reports] == [
            ("theorem1", False),
            ("hypo-sigma-tournament", True),
            ("hypo-sigma-variant", True),
        ]
        assert reports[0].counterexample[3:] == (3, 4)

    @pytest.mark.parametrize("p", [8, 64])
    def test_starred_class_table_edit_keeping_its_bits(self, tables, capsys, p):
        # the command line's twin: a starred 3 of the class table becomes 4
        # and its antisymmetric -3 becomes -4, so the validated tournament
        # pair of the self-check still builds; theorem 1 fails, both pairs
        # pass
        star = wm.MatrixVariant.STAR
        row = wm._reached_rows(p)[0]  # the offset 0, whose twin cell is (c, r)
        r, c = (int(v) for v in np.argwhere(wm._CLASS_TABLE[star][row] == 3)[0])
        tables.class_cells(star, row, {(r, c): 4, (c, r): -4})
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
        # the identities; only the dense oracle reads a table
        tables[1, [2, 4]] = tables[1, [4, 2]]

        monkeypatch.setattr(dm, "build_all_maps", lambda p: tables)
        report = lemma2_dense(8)
        assert not report.passed
        k = report.counterexample[0]
        assert k == 2
        assert dm.check_lemma2(8).passed

    def test_sigma4_fault_that_breaks_a_bijection_raises(self, monkeypatch):
        # the order-4 map deleting 1 sends 2 and 3 to one image
        sigma4 = dm._SIGMA4.copy()
        sigma4[0, 1] = sigma4[0, 2]
        monkeypatch.setattr(dm, "_SIGMA4", sigma4)
        with pytest.raises(ValueError, match="map 1 is not a bijection") as info:
            dm.check_lemma2(8)
        with pytest.raises(ValueError, match=str(info.value)):
            lemma2_dense(8)


class TestSelfCheckingOperations:
    def test_swap_involution_contradiction(self, tables):
        # plain (1, 6) at p = 8, in the row of offset +p/8, which the half
        # swap exchanges with -p/8
        tables.class_cell(wm.MatrixVariant.PLAIN, int(wm._reached_rows(8)[-2]), 0, 1)
        with pytest.raises(ContradictionError, match="half-swap failed"):
            db.swap_involution(8)

    @pytest.mark.parametrize("p", [8, 16, 64])
    def test_swap_involution_raises_on_any_crossed_row_edit(self, tables, p):
        # any one-cell edit of the rows of +-p/8 raises, and an edit of
        # another reached row exactly when it writes an extreme level
        top = p.bit_length()  # the extreme level n + 1
        rows = wm._reached_rows(p)
        for variant in wm.MatrixVariant:
            for t, row in enumerate(rows):
                for r, c in np.ndindex(4, 4):
                    old = int(wm._CLASS_TABLE[variant][row, r, c])
                    # the next level, cyclically: always a different value
                    new = (old + top + 1) % (2 * top + 1) - top
                    tables.class_cell(variant, int(row), r, c, new)
                    if t >= len(rows) - 2 or abs(new) == top:
                        with pytest.raises(ContradictionError):
                            db.swap_involution(p)
                    else:
                        db.swap_involution(p)
        tables.class_cells(wm.MatrixVariant.PLAIN, int(rows[0]), {})
        assert np.array_equal(db.swap_involution(p), np.roll(np.arange(1, p + 1), p // 2))

    def test_census_checks_swap_before_any_search(self, monkeypatch):
        def broken(p):
            raise ContradictionError("half-swap failed")

        monkeypatch.setattr(db, "_check_half_swap", broken)
        monkeypatch.setattr(db, "_census_verdicts", no_search)
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


def _antisymmetric_faults(p):
    """(variant, row, twin, r, c, level): each class-table cell reached at
    order p off the diagonal, with its twin, set to every other level
    -level, +level in the range of the lowest order that reads the row, so
    that every matrix the census builds validates.  Row k of
    ``_reached_rows`` holds offset 0 (k = 0, its own twin, first read at
    order 4) or +-2**x, x = (k - 1) // 2 (twin ``row ^ 1``, first read at
    order 2**(x + 3))."""
    faults = []
    for variant in wm.MatrixVariant:
        for k, row in enumerate(wm._reached_rows(p).tolist()):
            if k and k % 2 == 0:
                continue  # the twin row of the one before
            top = 3 if k == 0 else (k - 1) // 2 + 4
            for r, c in np.ndindex(4, 4):
                if k == 0 and r >= c:
                    continue
                old = int(wm._CLASS_TABLE[variant][row, r, c])
                for level in range(-top, top + 1):
                    if level != old:
                        faults.append((variant, row, row if k == 0 else row ^ 1, r, c, level))
    return faults


def _sweep_census_faults(monkeypatch, p, faults, bypass):
    """Run the census under each fault: it must raise ContradictionError or
    give the search oracle's verdict on every row.  With ``bypass``, the
    whole-order identities are skipped: the half swap (which only the orbit
    ids rest on) and the point-1 levels (which the forced rows rest on), so
    that the unforced rows' own proofs meet the faults and only their
    verdicts are compared."""
    if bypass:
        monkeypatch.setattr(db, "_check_half_swap", lambda p: None)
        monkeypatch.setattr(db, "_check_point1_levels", lambda p: None)
    n = p.bit_length() - 1
    for variant, row, twin, r, c, level in faults:
        table = wm._CLASS_TABLE[variant].copy()
        table[row, r, c], table[twin, c, r] = level, -level
        with monkeypatch.context() as m:
            m.setitem(wm._CLASS_TABLE, variant, table)
            try:
                rows = db.assignment_census(p).rows
            except ContradictionError:
                continue
            for census_row in rows:
                bits = census_row.assignment_bits
                if bypass and bits[n] == bits[-1]:
                    continue
                pair = assigned_pair(p, db.assignment_from_bits(n, bits))
                assert census_row.isomorphic == census_entry(*pair), (bits, row, r, c, level)


class TestCensusFaults:
    """Under a class-table fault the census returns the search oracle's
    verdict on every row, or raises ContradictionError: never a wrong
    verdict."""

    @pytest.mark.parametrize("bypass", [False, True])
    def test_every_antisymmetric_fault_at_8(self, monkeypatch, bypass):
        faults = _antisymmetric_faults(8)
        assert len(faults) == 328
        _sweep_census_faults(monkeypatch, 8, faults, bypass)

    @pytest.mark.parametrize("bypass", [False, True])
    def test_seeded_faults_at_16(self, monkeypatch, bypass):
        faults = _antisymmetric_faults(16)
        rng = np.random.default_rng(16)
        sample = [faults[k] for k in rng.choice(len(faults), size=60, replace=False)]
        _sweep_census_faults(monkeypatch, 16, sample, bypass)

    def test_row_that_does_not_split_raises(self, monkeypatch):
        # no row's halves are told apart
        monkeypatch.setattr(db, "_splits", lambda plain, star: np.zeros(len(plain), dtype=bool))
        with pytest.raises(
            ContradictionError, match="^census row 00000001 at p=8 does not split by degree$"
        ):
            db.assignment_census(8)

    def test_forged_half_order_witness_raises(self, monkeypatch):
        # the order-8 witnesses replaced by the identity, which lifts to
        # the half swap: it does not carry every row lifted from them
        real = db._census_verdicts

        def forged(p):
            isomorphic, witness = real(p)
            if p == 8:
                witness = np.broadcast_to(np.arange(8), witness.shape)
            return isomorphic, witness

        monkeypatch.setattr(db, "_census_verdicts", forged)
        with pytest.raises(
            ContradictionError, match="^census row [01]{10} at p=16 is not carried by its lifted witness$"
        ):
            db.assignment_census(16)


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

    def test_base_case_reads_the_census_row(self, tables, capsys):
        # the starred order-4 block made the plain one: the tournament
        # assignment's row (111000) reads isomorphic, by the identity
        plain, star = wm.MatrixVariant.PLAIN, wm.MatrixVariant.STAR
        row = int(wm._reached_rows(4)[0])
        block = wm._CLASS_TABLE[plain][row]
        tables.class_cells(star, row, {(r, c): block[r, c] for r in range(4) for c in range(4)})
        isomorphic, witness = db._census_verdicts(4)
        assert isomorphic[0b111000] and list(witness[0b111000]) == [0, 1, 2, 3]
        message = "order-4 pair failed the exhaustive base case"
        assert _theorem2_error(4) == message
        assert main(["verify", "--p", "4", "--checks", "theorem2"]) == 1
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        assert report["counterexample"]["rhs"] == message

    def test_no_pass_is_cached(self, monkeypatch):
        # each call verifies every level afresh, so a fault that appears
        # after a clean run is still found
        ie.verify_nonisomorphic_inductive(16)
        _corrupt_class_table(monkeypatch, _flip_positive_entry)
        assert _theorem2_error(16).startswith("score split failed at p=16")
        monkeypatch.undo()
        ie.verify_nonisomorphic_inductive(16)
        # an order-4 census that reads every row isomorphic
        monkeypatch.setattr(ie, "_census_verdicts", lambda p: (np.ones(64, dtype=bool), None))
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
    """Move the order-8 starred class-table cell of the first entry at level
    ``old``, and that of its antisymmetric partner, to level ``new``: at
    p = 8 each cell of the rows of offsets +-1 is one entry.  The census's
    half-swap check (``_check_half_swap``) still reads the clean table, so
    the census gets past it to the point-1 level check."""
    star = wm.MatrixVariant.STAR
    clean = wm._CLASS_TABLE[star]
    real_swap = db._check_half_swap
    i, j = (int(v) for v in np.argwhere(wm.entry_grid(8, star) == old)[0])
    table = clean.copy()
    for (r, c), level in (((i, j), new), ((j, i), -new)):
        d = np.array([(c >> 2) - (r >> 2)], dtype=np.int32)
        table[wm._offset_class(d)[0], r & 3, c & 3] = level

    def swap_on_clean_table(p):
        with monkeypatch.context() as m:
            m.setitem(wm._CLASS_TABLE, star, clean)
            return real_swap(p)

    monkeypatch.setitem(wm._CLASS_TABLE, star, table)
    monkeypatch.setattr(db, "_check_half_swap", swap_on_clean_table)


@pytest.fixture
def corrupt_star_extreme_cell(monkeypatch):
    """A starred cell at the extreme level 4 moved to level 1, so the
    extended point-1 mapping no longer carries the forced rows' digraphs
    onto each other."""
    corrupt_star_cell(monkeypatch, 4, 1)


@pytest.fixture
def corrupt_star_level_two_cell(monkeypatch):
    """A starred cell moved from level 2 to level 3: a pair of non-extreme
    levels that the all-zero assignment alone would not tell apart."""
    corrupt_star_cell(monkeypatch, 2, 3)


class TestForcedRowFaults:
    def test_forced_isomorphism_raises(self, corrupt_star_extreme_cell):
        # extremes to 1, every other level to 0
        a = db.assignment_from_bits(3, "00010001")
        with pytest.raises(
            ContradictionError, match="at p=8: it sends plain level -4 onto starred level 1$"
        ):
            db.forced_isomorphism(8, a)

    def test_census_raises_before_any_search(self, corrupt_star_extreme_cell, monkeypatch):
        monkeypatch.setattr(db, "_splits", no_search)
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
    """The point-1 level identity is checked for the whole order, so a stray
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
        monkeypatch.setattr(db, "_splits", no_search)
        with pytest.raises(ContradictionError, match=self.MESSAGE):
            db.assignment_census(8)


class TestFaultAfterAFirstCall:
    """A table edited after a first call in the same process reaches the
    second call: no dense matrix, map table or point-1 witness outlives
    the call that built it.  Each edit is made straight on the class table
    or ``_SIGMA4``, not through the ``tables`` fixture."""

    def test_build_dense(self, monkeypatch):
        plain = wm.MatrixVariant.PLAIN
        wm.build_dense(16, plain)
        table = wm._CLASS_TABLE[plain].copy()
        # a cell of the largest offsets' row, whose twin sits in another row
        table[int(wm._reached_rows(16)[-1]), 1, 2] *= -1
        monkeypatch.setitem(wm._CLASS_TABLE, plain, table)
        with pytest.raises(ValueError, match="antisymmetric"):
            wm.build_dense(16, plain)

    def test_build_all_maps(self, monkeypatch):
        before = dm.build_all_maps(8)
        sigma4 = dm._SIGMA4.copy()
        sigma4[0, [1, 2]] = sigma4[0, [2, 1]]
        monkeypatch.setattr(dm, "_SIGMA4", sigma4)
        after = dm.build_all_maps(8)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, [dm.build_map(8, k) for k in range(1, 9)])

    def test_forced_isomorphism(self, monkeypatch):
        a = db.assignment_from_bits(3, "00010001")
        assert db.forced_isomorphism(8, a) is not None
        corrupt_star_cell(monkeypatch, 4, 1)
        with pytest.raises(ContradictionError, match="not an isomorphism at p=8"):
            db.forced_isomorphism(8, a)


def _weighted_faults():
    """(name, edit(tables, variant, p), the dense route's message): one
    class-table fault each, in the order ``WeightedMatrix`` checks them."""

    def lone_cell(tables, variant, p):
        # the largest offsets' row: the twin cell sits in another row
        tables.class_cell(variant, int(wm._reached_rows(p)[-1]), 1, 2)

    def diagonal(tables, variant, p):
        tables.class_cell(variant, int(wm._reached_rows(p)[0]), 2, 2, 1)

    def beyond_the_range(tables, variant, p):
        level = p.bit_length() + 1  # n + 2
        row = int(wm._reached_rows(p)[0])
        tables.class_cells(variant, row, {(0, 1): level, (1, 0): -level})

    return [
        ("lone-cell", lone_cell, "matrix must be antisymmetric"),
        ("diagonal", diagonal, "diagonal entries must be 0"),
        ("range", beyond_the_range, "entries must lie in [-(n+1), n+1]"),
    ]


class TestWeightedCsvFaults:
    """``generate --kind weighted`` checks the offset table as the dense
    route checks each matrix: the same exit, error line and output bytes."""

    @pytest.mark.parametrize("variant", list(wm.MatrixVariant))
    @pytest.mark.parametrize("p", [8, 64])
    @pytest.mark.parametrize(
        "edit, message",
        [pytest.param(edit, message, id=name) for name, edit, message in _weighted_faults()],
    )
    def test_same_error_and_bytes_as_dense_route(
        self, tables, tmp_path, capsys, edit, message, p, variant
    ):
        edit(tables, variant, p)
        # the dense route: each variant built and validated in turn, its
        # text written before the next is built
        texts, error = [], None
        for v in wm.MatrixVariant:
            try:
                texts.append(wm.build_dense(p, v).to_csv())
            except ValueError as exc:
                error = f"recon-census: internal error: ValueError: {exc}\n"
                break
        assert error is not None and message in error
        out = tmp_path / "m.csv"
        args = ["generate", "--p", str(p), "--kind", "weighted", "--variant", "both"]
        assert main([*args, "--out", str(out)]) == 3
        assert capsys.readouterr().err == error
        # a starred fault leaves the clean plain text
        assert out.read_text() == "\n".join(texts)
        assert len(texts) == (variant is wm.MatrixVariant.STAR)


TOURNAMENT_CHECK = "canonical pair failed the tournament check"


def _digraph_faults():
    """``_weighted_faults`` and one fault that keeps the matrix valid but
    breaks the tournament property: a cell and its twin in the zero row
    both at level 0, so neither arc between them exists."""

    def no_arc(tables, variant, p):
        row = int(wm._reached_rows(p)[0])
        tables.class_cells(variant, row, {(0, 1): 0, (1, 0): 0})

    return _weighted_faults() + [
        ("no-arc", no_arc, TOURNAMENT_CHECK),
    ]


class TestDigraphFaults:
    """Digraph ``generate`` checks the offset table, and for tournaments
    the twin levels, as the dense route checks each digraph: the same
    exit, error line and output bytes."""

    @pytest.mark.parametrize("variant", list(wm.MatrixVariant))
    @pytest.mark.parametrize("kind", ["tournament", "variant-digraph"])
    @pytest.mark.parametrize("fmt", ["csv", "d6"])
    @pytest.mark.parametrize(
        "edit, message",
        [pytest.param(edit, message, id=name) for name, edit, message in _digraph_faults()],
    )
    def test_same_error_and_bytes_as_dense_route(
        self, tables, tmp_path, capsys, edit, message, fmt, kind, variant
    ):
        p = 16
        edit(tables, variant, p)
        build = {"tournament": db.tournament_digraph, "variant-digraph": db.variant_digraph}
        # the dense route: each digraph built and checked in turn, its
        # text written before the next is built
        texts, error = [], ""
        for v in wm.MatrixVariant:
            try:
                g = build[kind](p, v)
            except (ValueError, ContradictionError) as exc:
                error = f"recon-census: internal error: {type(exc).__name__}: {exc}\n"
                break
            texts.append(g.to_csv() if fmt == "csv" else g.to_digraph6() + "\n")
        star = variant is wm.MatrixVariant.STAR
        tournament_fault = message == TOURNAMENT_CHECK
        if kind == "tournament" and (tournament_fault or star):
            # the tournament check reads the twin levels of both variants
            # once the plain matrix passes its checks, before any text
            assert error.endswith(f"ContradictionError: {TOURNAMENT_CHECK}\n")
            assert texts == []
        elif tournament_fault:
            # a variant digraph has no such check
            assert error == "" and len(texts) == 2
        else:
            # a starred fault leaves the clean plain text
            assert message in error
            assert len(texts) == star
        out = tmp_path / "g.txt"
        args = ["generate", "--p", str(p), "--kind", kind, "--variant", "both"]
        assert main([*args, "--format", fmt, "--out", str(out)]) == (3 if error else 0)
        assert capsys.readouterr().err == error
        assert out.read_text() == ("\n" if fmt == "csv" else "").join(texts)


class TestExportFaults:
    """``export`` checks every map row before it prints any: a ``_SIGMA4``
    fault that breaks a bijection exits 3 with ``build_all_maps``'s error
    and no text."""

    @pytest.mark.parametrize("p", [4, 64, 1024])
    @pytest.mark.parametrize("k, x, y", [(0, 1, 2), (3, 0, 2)])
    def test_broken_bijection_exits_3_before_any_text(self, monkeypatch, capsys, p, k, x, y):
        # the order-4 map deleting k + 1 sends x + 1 where it sends y + 1
        sigma4 = dm._SIGMA4.copy()
        sigma4[k, x] = sigma4[k, y]
        monkeypatch.setattr(dm, "_SIGMA4", sigma4)
        with pytest.raises(ValueError, match=f"map {k + 1} is not a bijection") as info:
            dm.build_all_maps(p)
        assert main(["export", "--p", str(p)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"recon-census: internal error: ValueError: {info.value}\n"
