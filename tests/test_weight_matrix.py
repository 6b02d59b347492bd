import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recon_census.blocks as blocks
import recon_census.weight_matrix as wm
from recon_census.weight_matrix import (
    DENSE_ORDER_LIMIT,
    MatrixVariant,
    WeightedMatrix,
    build_dense,
    check_lemma1,
    entry_at,
    entry_grid,
    entry_values,
    order_exponent,
)

from conftest import load_matrix_fixture
from loop_oracles import check_lemma1_reference

PLAIN = MatrixVariant.PLAIN
STAR = MatrixVariant.STAR
VARIANTS = [(PLAIN, "plain"), (STAR, "star")]


class TestOrderValidation:
    def test_exponents(self):
        assert order_exponent(4) == 2
        assert order_exponent(8) == 3
        assert order_exponent(4096) == 12

    @pytest.mark.parametrize("bad", [0, 1, 2, 3, 5, 6, 12, 100, -8])
    def test_rejects_bad_orders(self, bad):
        with pytest.raises(ValueError):
            order_exponent(bad)


class TestBaseMatrix:
    def test_plain_first_row(self):
        m = build_dense(4, PLAIN)
        assert m[1, 2] == 1
        assert [m.entry(1, j) for j in range(1, 5)] == [0, 1, 2, 3]

    def test_star_first_row(self):
        m = build_dense(4, STAR)
        assert m[1, 2] == -2
        assert [m.entry(1, j) for j in range(1, 5)] == [0, -2, -3, -1]

    def test_diagonal(self):
        assert build_dense(4, PLAIN)[3, 3] == 0

    @pytest.mark.parametrize("variant,name", VARIANTS)
    def test_matches_fixture(self, variant, name):
        assert np.array_equal(build_dense(4, variant).entries, load_matrix_fixture(4, name))


class TestBuildDense:
    @pytest.mark.parametrize("p", [4, 8, 16])
    @pytest.mark.parametrize("variant,name", VARIANTS)
    def test_golden_fixtures(self, p, variant, name):
        m = build_dense(p, variant)
        assert np.array_equal(m.entries, load_matrix_fixture(p, name))

    @pytest.mark.parametrize("variant", [PLAIN, STAR])
    def test_order_4_is_base_case(self, variant):
        assert np.array_equal(build_dense(4, variant).entries, wm._BASE[variant])

    @pytest.mark.parametrize("bad", [2, 6, 24])
    def test_rejects_bad_orders(self, bad):
        with pytest.raises(ValueError):
            build_dense(bad, PLAIN)

    def test_memory_budget(self, monkeypatch):
        import recon_census.weight_matrix as wm

        with pytest.raises(ValueError, match="refused"):
            build_dense(2 * DENSE_ORDER_LIMIT, PLAIN)
        build_dense(16, PLAIN)  # accepted here, and refused below
        monkeypatch.setattr(wm, "DENSE_ORDER_LIMIT", 8)
        with pytest.raises(ValueError, match="refused"):
            build_dense(16, PLAIN)

    def test_gathered_grid_is_validated(self, monkeypatch):
        import recon_census.weight_matrix as wm

        def one_cell_off(p, variant):
            grid = entry_grid(p, variant)
            grid[0, 1] += 1  # its twin (1, 0) unchanged
            return grid

        monkeypatch.setattr(wm, "entry_grid", one_cell_off)
        with pytest.raises(ValueError, match="antisymmetric"):
            build_dense(16, PLAIN)

    def test_entries_read_only(self):
        m = build_dense(8, PLAIN)
        with pytest.raises(ValueError):
            m.entries[0, 1] = 7

    @pytest.mark.parametrize("p", [8, 16, 32])
    @pytest.mark.parametrize("variant,_", VARIANTS)
    def test_construction_invariants(self, p, variant, _):
        e = build_dense(p, variant).entries
        assert np.all(np.diagonal(e) == 0)
        assert np.array_equal(e.T, -e)
        assert np.abs(e).max() == order_exponent(p) + 1

    def test_csv_round_trip_bytes(self, fixtures_dir):
        got = build_dense(8, STAR).to_csv()
        assert got == (fixtures_dir / "weighted_p8_star.csv").read_text()
        assert got.endswith("\n") and "," in got.splitlines()[0]


class TestWeightedMatrixValidation:
    @pytest.mark.parametrize(
        "i, j", [(0, 1), (255, 256), (256, 255), (1023, 0), (0, 1023), (600, 700)]
    )
    def test_one_cell_without_its_twin_is_refused(self, i, j):
        # p = 1024 is 4 x 4 tiles of the antisymmetry scan
        entries = build_dense(1024, PLAIN).entries.copy()
        WeightedMatrix(1024, PLAIN, entries.copy())
        entries[i, j] = 1 if entries[i, j] != 1 else 2
        with pytest.raises(ValueError, match="antisymmetric"):
            WeightedMatrix(1024, PLAIN, entries)

    def test_diagonal_and_level_bound(self):
        entries = build_dense(16, STAR).entries.copy()
        entries[3, 3] = 1
        with pytest.raises(ValueError, match="diagonal"):
            WeightedMatrix(16, STAR, entries)
        for level in (6, -6):
            entries = build_dense(16, STAR).entries.copy()
            entries[0, 1], entries[1, 0] = level, -level
            with pytest.raises(ValueError, match=r"\[-5, 5\]"):
                WeightedMatrix(16, STAR, entries)


class TestFirstCell:
    @pytest.mark.parametrize("cells", [1, 5, 7, 30, 1 << 18])
    def test_first_true_cell_in_row_major_order(self, monkeypatch, cells):
        import recon_census.weight_matrix as wm

        monkeypatch.setattr(blocks, "_BLOCK_CELLS", cells)
        rng = np.random.default_rng(cells)
        for density in (0.0, 0.02, 0.3):
            grid = rng.random((13, 7)) < density
            asked = []

            def bad(rows):
                asked.append(rows)
                return grid[rows]

            got = wm._first_cell(13, 7, bad)
            hits = np.argwhere(grid)
            assert got == (tuple(int(x) for x in hits[0]) if hits.size else None)
            # the blocks tile the rows in order, and the scan stops at the
            # first block holding a True cell
            starts = [b.start for b in asked]
            assert starts == sorted(starts) and starts[0] == 0
            if got is None:
                assert asked[-1].stop == 13
            else:
                assert asked[-1].start <= got[0] < asked[-1].stop


class TestEntryAt:
    def test_printed_values(self):
        assert entry_at(8, PLAIN, 1, 5) == 4
        assert entry_at(16, PLAIN, 1, 13) == -4
        assert entry_at(16, PLAIN, 1, 9) == 5

    def test_matches_dense_at_unprinted_order(self):
        m = build_dense(32, PLAIN)
        assert entry_at(32, PLAIN, 3, 19) == m.entry(3, 19)

    @pytest.mark.parametrize("p", [4, 8, 16, 32, 64])
    @pytest.mark.parametrize("variant,_", VARIANTS)
    def test_agrees_with_dense_everywhere(self, p, variant, _):
        m = build_dense(p, variant)
        for i in range(1, p + 1):
            for j in range(1, p + 1):
                assert entry_at(p, variant, i, j) == m.entry(i, j), (i, j)

    def test_index_errors(self):
        with pytest.raises(IndexError):
            entry_at(8, PLAIN, 0, 1)
        with pytest.raises(IndexError):
            entry_at(8, PLAIN, 1, 9)

    @pytest.mark.parametrize(
        "i, j", [(True, 2), (2, True), (np.True_, 2), (1.5, 2), (2, 2.0), (np.float64(3), 1)]
    )
    def test_refuses_non_integer_indices(self, i, j):
        # as entry_values does: True would read as row 1, 1.5 as row 1
        with pytest.raises(ValueError, match="index must be an integer"):
            entry_at(8, PLAIN, i, j)
        with pytest.raises(ValueError, match="row indices must be integers|column"):
            entry_values(8, PLAIN, i, j)

    def test_range_is_checked_before_the_type(self):
        with pytest.raises(IndexError, match="indices must lie in 1..8"):
            entry_at(8, PLAIN, 8.5, 1)

    def test_takes_numpy_integers(self):
        i, j = np.int64(3), np.int32(6)
        assert entry_at(8, STAR, i, j) == entry_at(8, STAR, 3, 6)

    @pytest.mark.parametrize(
        "i, j, axis",
        [
            # 2**32 + 5 narrowed to int32 would read as row 5: entry (5, 1)
            (np.array([2**32 + 5]), np.array([1]), "row"),
            (np.array([1]), np.array([2**32 + 1]), "column"),
            (np.array([-(2**32) + 3]), 1, "row"),
            (2**31, 1, "row"),
            # beyond int64: an object array, not an OverflowError
            (1, 2**70, "column"),
            (np.array([0, 3], dtype=np.int32), 1, "row"),
        ],
    )
    def test_vectorized_checks_range_before_narrowing(self, i, j, axis):
        with pytest.raises(IndexError, match=f"{axis} indices must lie in 1..16"):
            entry_values(16, PLAIN, i, j)

    @pytest.mark.parametrize("p", [2**31, 2**40])
    def test_vectorized_refuses_orders_above_int32(self, p):
        # the offset 2**32 would wrap to 0: entry_at reads 36 at 2**40
        with pytest.raises(ValueError, match="orders up to 2"):
            entry_values(p, PLAIN, [1], [2**34 + 1])
        with pytest.raises(ValueError, match="orders up to 2"):
            entry_grid(p, PLAIN)

    def test_vectorized_takes_the_top_int32_order(self):
        p = 2**30
        i, j = [1, 3, p - 1], [p, 2**29 + 7, 2]
        got = entry_values(p, STAR, i, j).tolist()
        assert got == [entry_at(p, STAR, a, b) for a, b in zip(i, j)]

    @pytest.mark.parametrize(
        "i, j, axis",
        [
            # a float would be truncated to row 1, a bool read as row 1
            (1.5, 2, "row"),
            (1, np.array([2.0, 3.0]), "column"),
            (True, 5, "row"),
            (np.array([1, 2]), np.array([True, True]), "column"),
        ],
    )
    def test_vectorized_refuses_non_integer_indices(self, i, j, axis):
        with pytest.raises(ValueError, match=f"{axis} indices must be integers"):
            entry_values(8, PLAIN, i, j)

    def test_int32_points_are_not_copied(self):
        i = np.arange(1, 17, dtype=np.int32)
        assert wm._points_int32(i, 16, "row indices") is i

    @given(
        p=st.sampled_from([4, 8, 16, 64, 512, 4096]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_antisymmetry(self, p, data):
        i = data.draw(st.integers(1, p))
        j = data.draw(st.integers(1, p))
        for variant in (PLAIN, STAR):
            assert entry_at(p, variant, j, i) == -entry_at(p, variant, i, j)

    @given(
        p=st.sampled_from([4, 8, 32, 256, 2048]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_vectorized_matches_scalar(self, p, data):
        i = data.draw(st.integers(1, p))
        j = data.draw(st.integers(1, p))
        for variant in (PLAIN, STAR):
            assert int(entry_values(p, variant, i, j)) == entry_at(p, variant, i, j)

    def test_extreme_levels_sit_exactly_at_half_offsets(self):
        for p in (8, 16, 32, 64):
            top = order_exponent(p) + 1
            for variant in (PLAIN, STAR):
                e = entry_grid(p, variant)
                where = np.argwhere(np.abs(e) == top)
                assert len(where) == p
                assert all(abs(i - j) == p // 2 for i, j in where)

    def test_variant_relation_at_half_offset(self):
        for p in (8, 16, 64):
            n = order_exponent(p)
            for i in range(1, p // 2 + 1):
                assert entry_at(p, PLAIN, i, i + p // 2) == n + 1
                assert entry_at(p, STAR, i, i + p // 2) == -(n + 1)


def class_offsets(p):
    """One offset per class reachable at order p: 0 and s * y * 2**x for
    each sign s, y in {1, 3} and x <= n - 3, where |d| < p/4."""
    n = order_exponent(p)
    d = {s * y << x for s in (1, -1) for y in (1, 3) for x in range(n - 2)}
    return sorted({0} | {v for v in d if abs(v) < p // 4})


class TestClassTable:
    @pytest.mark.parametrize("n", range(3, 25))
    def test_gather_matches_scalar_oracle_at_every_class(self, n):
        p = 2**n
        assert p <= wm.ORACLE_ORDER_LIMIT
        offsets = class_offsets(p)
        # both odd-part residues for every valuation x <= n - 3
        assert {(v & -v, (v // (v & -v)) % 4) for v in offsets if v} == {
            (1 << x, y) for x in range(n - 2) for y in (1, 3)
        }
        for d in offsets:
            b = max(0, -d)  # a block row where offset d stays inside the matrix
            i = 4 * b + np.arange(1, 5)[:, None]
            j = 4 * (b + d) + np.arange(1, 5)[None, :]
            for variant in (PLAIN, STAR):
                got = entry_values(p, variant, i, j)
                want = [[entry_at(p, variant, int(r), int(c)) for c in j[0]] for r in i[:, 0]]
                assert got.tolist() == want, (p, variant, d)

    @pytest.mark.parametrize("p", [2**n for n in range(2, 15)])
    @pytest.mark.parametrize("variant,_", VARIANTS)
    def test_offset_table_is_the_closed_form_at_every_offset(self, p, variant, _):
        nb = p // 4
        blocks_of = [blocks._offset_block(variant, d) for d in range(1 - nb, nb)]
        want = np.array(blocks_of).reshape(-1, 4, 4)
        got = wm._offset_case_table(p, variant)
        assert got.dtype == np.int8 and np.array_equal(got, want)


class TestReachedRows:
    @pytest.mark.parametrize("n", range(2, 29))
    def test_pinned(self, n):
        # d = 0 is row 64 (d ^ (d - 1) has all 32 bits set); d = y * 2**(m-1)
        # is row 2m + (y = 3 mod 4), for 1 <= m <= n - 2
        want = [64] + [2 * m + s for m in range(1, n - 1) for s in (0, 1)]
        assert wm._reached_rows(2**n).tolist() == want

    @pytest.mark.parametrize("p", [4, 8, 64, 4096])
    def test_the_rows_every_offset_reads(self, p):
        d = np.arange(1 - p // 4, p // 4, dtype=np.int32)
        assert set(wm._offset_class(d).tolist()) == set(wm._reached_rows(p).tolist())


class TestLemma1:
    @pytest.mark.parametrize("p", [8, 16, 64])
    def test_passes(self, p):
        report = check_lemma1(p)
        assert report.passed and report.counterexample is None
        assert report.checked_count > 0

    def test_rejects_order_4(self):
        with pytest.raises(ValueError):
            check_lemma1(4)

    @pytest.mark.parametrize("p", [2**n for n in range(3, 11)])
    def test_class_form_matches_grid_form(self, p):
        report = check_lemma1(p)
        assert report == check_lemma1_reference(p)
        assert report.passed and report.checked_count == 2 * p * p

    def test_nested_copies_directly(self):
        big = build_dense(16, PLAIN).entries
        small = build_dense(8, PLAIN).entries
        assert np.array_equal(big[:8, :8], small)
        assert np.array_equal(big[8:, 8:], small)

    def test_sign_flips_only_at_quarter_offset(self):
        # at p = 16 the shifted copy differs from the original exactly on
        # the |j - i| = 4 stripe (plus the diagonal, where a zero faces
        # the extreme level)
        m = build_dense(16, PLAIN).entries.astype(int)
        h = 8
        diff = m[:h, h:] != m[:h, :h]
        i, j = np.meshgrid(range(h), range(h), indexing="ij")
        assert np.array_equal(diff, (np.abs(i - j) == 4) | (i == j))

    @pytest.mark.parametrize("p", [8, 16, 32])
    def test_half_shift_sign_rule(self, p):
        # (b)/(c) on the dense matrices: for distinct i, j <= p/2 both
        # half-shifted entries are the entry times -1 at p = 8, and above
        # it times -1 exactly where |j - i| = p/4
        h = p // 2
        i, j = np.meshgrid(range(h), range(h), indexing="ij")
        sign = np.where((p == 8) | (np.abs(i - j) == p // 4), -1, 1)
        for variant in (PLAIN, STAR):
            e = build_dense(p, variant).entries.astype(int)
            for shifted in (e[:h, h:], e[h:, :h]):
                assert np.all((shifted == sign * e[:h, :h])[i != j])
