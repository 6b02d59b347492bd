import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recon_census.deletion_maps as dm
import recon_census.theorem1_automaton as t1a
import recon_census.weight_matrix as wm
from recon_census.deletion_maps import (
    build_all_maps,
    build_map,
    check_lemma2,
    extend_sigma_p1,
    sigma,
    sigma_reference,
    sigma_table_tsv,
    sigma_values,
)
from recon_census.digraph_builder import standard_pair, variant_pair
from recon_census.weight_matrix import MatrixVariant, entry_grid

from conftest import load_sigma_fixture, swap_images_at_random, swap_two_images
import loop_oracles
from loop_oracles import (
    deletion_sweep_reference,
    lemma2_d,
    lemma2_d_reference,
    lemma2_dense,
    lemma2_loops,
)


class TestSigmaValues:
    def test_printed_values(self):
        assert sigma(8, 1, 2) == 8
        assert sigma(8, 1, 5) == 5
        assert sigma(16, 1, 9) == 9
        assert sigma(16, 2, 5) == 11

    def test_base_tables(self):
        assert build_map(4, 1).tolist() == [0, 4, 2, 3]
        assert build_map(4, 4).tolist() == [2, 3, 1, 0]

    def test_deleted_point_undefined(self):
        with pytest.raises(ValueError):
            sigma(8, 2, 2)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            sigma(8, 0, 1)
        with pytest.raises(IndexError):
            sigma(8, 1, 9)

    @pytest.mark.parametrize(
        "k, i",
        [
            # 2**32 + 3 narrowed to int32 would read as point 3: sigma_3(1) = 16
            (np.array([2**32 + 3]), np.array([1])),
            (np.array([1]), np.array([2**32 + 2])),
            (np.array([2]), np.array([-(2**32) + 1])),
            (2**31, 1),
            # beyond int64: an object array, not an OverflowError
            (1, 2**70),
            (np.array([17], dtype=np.int32), np.array([1], dtype=np.int32)),
        ],
    )
    def test_vectorized_checks_range_before_narrowing(self, k, i):
        with pytest.raises(IndexError, match="points must lie in 1..16"):
            sigma_values(16, k, i)

    @pytest.mark.parametrize("k, i", [(1.5, 3), (2, np.array([3.0])), (True, 3), (3, True)])
    def test_vectorized_refuses_non_integer_points(self, k, i):
        # 1.5 would be truncated to point 1: sigma_1(3) = 6
        with pytest.raises(ValueError, match="points must be integers"):
            sigma_values(8, k, i)

    def test_vectorized_refuses_orders_above_int32(self):
        with pytest.raises(ValueError, match="orders up to 2"):
            sigma_values(2**40, 1, 2**33 + 2)

    @pytest.mark.parametrize("k, i", [(1.5, 3), (2, 3.0), (True, 3), (3, True), (np.True_, 3)])
    @pytest.mark.parametrize("scalar", [sigma, sigma_reference])
    def test_scalar_refuses_non_integer_points(self, scalar, k, i):
        # as sigma_values does: sigma(8, True, 3) read sigma_1(3) = 6
        with pytest.raises(ValueError, match="point must be an integer"):
            scalar(8, k, i)

    @pytest.mark.parametrize("scalar", [sigma, sigma_reference])
    def test_scalar_checks_range_before_the_type(self, scalar):
        with pytest.raises(IndexError, match="deleted point must lie in 1..8"):
            scalar(8, 8.5, 1)
        with pytest.raises(IndexError, match="point must lie in 1..8"):
            scalar(8, 1, 0.5)

    def test_scalar_takes_numpy_integers(self):
        assert sigma(16, np.int64(3), np.int32(9)) == sigma(16, 3, 9)
        assert sigma_reference(16, np.uint8(3), np.int16(9)) == sigma(16, 3, 9)

    @pytest.mark.parametrize("p", [4, 8, 16, 32, 64])
    def test_folded_equals_reference(self, p):
        for k in range(1, p + 1):
            for i in range(1, p + 1):
                if i != k:
                    assert sigma(p, k, i) == sigma_reference(p, k, i), (p, k, i)

    @given(p=st.sampled_from([8, 16, 128, 1024]), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_vectorized_matches_scalar(self, p, data):
        k = data.draw(st.integers(1, p))
        i = data.draw(st.integers(1, p).filter(lambda v: v != k))
        assert int(sigma_values(p, k, i)) == sigma(p, k, i)

    @pytest.mark.parametrize("p", [4, 8, 16, 32, 64, 128, 256])
    def test_vectorized_equals_reference_exhaustively(self, p):
        k, i = np.divmod(np.arange(p * p, dtype=np.int32), p)
        off = k != i
        k, i = k[off] + 1, i[off] + 1
        got = sigma_values(p, k, i)
        want = [sigma_reference(p, int(a), int(b)) for a, b in zip(k, i)]
        assert got.dtype == np.int32
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("p", [2**20, 2**24])
    def test_vectorized_matches_scalar_at_large_orders(self, p):
        rng = np.random.default_rng(p)
        k = rng.integers(1, p + 1, 100_000)
        i = rng.integers(1, p, 100_000)
        i += i >= k  # skip the deleted point
        got = sigma_values(p, k, i)
        assert np.array_equal(got, [sigma(p, int(a), int(b)) for a, b in zip(k, i)])

    def test_patched_order4_table_reaches_every_form(self, monkeypatch):
        """``_SIGMA4`` is the one order-4 table: no form keeps its own copy."""
        p = 16
        k, i = np.divmod(np.arange(p * p, dtype=np.int32), p)
        off = k != i
        k, i = k[off] + 1, i[off] + 1
        printed = sigma_values(p, k, i)
        # each row the inverse of the printed one: other bijections onto the
        # points other than k
        inverse = np.zeros_like(dm._SIGMA4)
        for b in range(4):
            for a in range(4):
                if a != b:
                    inverse[b, dm._SIGMA4[b, a] - 1] = a + 1
        monkeypatch.setattr(dm, "_SIGMA4", inverse)
        want = [sigma_reference(p, int(a), int(b)) for a, b in zip(k, i)]
        assert not np.array_equal(want, printed)
        assert [sigma(p, int(a), int(b)) for a, b in zip(k, i)] == want
        assert np.array_equal(sigma_values(p, k, i), want)
        rows = np.concatenate([np.delete(build_map(p, b), b - 1) for b in range(1, p + 1)])
        assert np.array_equal(rows, want)

    def test_vectorized_rejects_deleted_point(self):
        with pytest.raises(ValueError):
            sigma_values(8, np.array([1, 2]), np.array([2, 2]))


class TestMapTable:
    @pytest.mark.parametrize("p", [4, 8, 16, 32])
    def test_bijectivity_every_row(self, p):
        tables = build_all_maps(p)
        for k in range(1, p + 1):
            images = sorted(tables[k - 1][np.arange(p) != k - 1])
            assert images == [v for v in range(1, p + 1) if v != k]

    @pytest.mark.parametrize("p", [4, 8, 16, 32])
    def test_rows_equal_reference(self, p):
        tables = build_all_maps(p)
        assert tables.shape == (p, p) and tables.dtype == np.int32
        for k in range(1, p + 1):
            want = [0 if i == k else sigma_reference(p, k, i) for i in range(1, p + 1)]
            assert tables[k - 1].tolist() == want, k

    @pytest.mark.parametrize("k", [2.5, True, np.True_, 2.0])
    def test_build_map_refuses_non_integer_points(self, k):
        # build_map(8, 2.5) returned the map deleting 2, True the one deleting 1
        with pytest.raises(ValueError, match="deleted point must be an integer"):
            build_map(8, k)
        with pytest.raises(IndexError, match="deleted point must lie in 1..8"):
            build_map(8, 8.5)
        assert np.array_equal(build_map(8, np.int64(2)), build_map(8, 2))

    @pytest.mark.parametrize("p", [4, 8, 16, 32, 64])
    def test_build_map_equals_table_row(self, p):
        tables = build_all_maps(p)
        for k in range(1, p + 1):
            assert np.array_equal(build_map(p, k), tables[k - 1]), k

    @pytest.mark.parametrize("p", [1024, 2048])
    def test_block_boundaries(self, p):
        # the rows either side of a block edge are those of build_map
        tables = build_all_maps(p)
        step = next(wm._row_blocks(p, p)).stop
        assert step < p
        for k in (1, step, step + 1, p - step, p - step + 1, p):
            assert np.array_equal(build_map(p, k), tables[k - 1]), k

    def test_absent_slot_is_zero(self):
        assert build_map(8, 5)[4] == 0
        assert np.all(np.diagonal(build_all_maps(8)) == 0)

    def test_table_read_only(self):
        with pytest.raises(ValueError):
            build_all_maps(8)[0, 2] = 9

    def test_build_map_rejects_bad_point(self):
        with pytest.raises(IndexError):
            build_map(8, 0)
        with pytest.raises(IndexError):
            build_map(8, 9)


def _malformed_tables():
    """(table, k, error) cases at order 4, named: ``table`` is not a table
    of the deletion maps, its row k - 1 is the one that fails, and
    ``error`` matches the message of ``_check_rows``."""
    good = build_all_maps(4)
    cases = []
    for name, k, i, image, error in (
        ("nonzero hole", 1, 1, 1, "absence marker"),
        ("image above p", 2, 1, 5, "images must lie in 1..4"),
        ("negative image", 2, 1, -1, "images must lie in 1..4"),
        ("zero off the hole", 3, 1, 0, "not a bijection"),
        ("repeated image", 4, 2, good[3, 0], "not a bijection"),
        ("image at the deleted point", 4, 1, 4, "not a bijection"),
    ):
        table = good.copy()
        table[k - 1, i - 1] = image
        cases.append(pytest.param(table, k, error, id=name))
    return cases


class TestTableValidation:
    @pytest.mark.parametrize("table, k, error", _malformed_tables())
    def test_build_all_maps_rejects_malformed_row(self, table, k, error, monkeypatch):
        monkeypatch.setattr(dm, "_map_rows", lambda p, ks: table[ks - 1])
        with pytest.raises(ValueError, match=error):
            build_all_maps(4)
        with pytest.raises(ValueError, match=error):
            build_map(4, k)

    def test_build_all_maps_checks_each_row(self, monkeypatch):
        real = dm._map_rows

        def faulty(p, ks):
            # the map deleting 1 sends 2 and 3 to the same image
            rows = real(p, ks)
            rows[ks == 1, 1] = rows[ks == 1, 2]
            return rows

        monkeypatch.setattr(dm, "_map_rows", faulty)
        with pytest.raises(ValueError, match="map 1 is not a bijection"):
            build_all_maps(8)
        with pytest.raises(ValueError, match="map 1 is not a bijection"):
            build_map(8, 1)
        assert build_map(8, 4)[3] == 0


class TestGoldenTables:
    @pytest.mark.parametrize("p", [4, 8, 16])
    def test_tsv_matches_fixture(self, p):
        assert sigma_table_tsv(p) == load_sigma_fixture(p)

    def test_single_column_via_build_map(self):
        want = load_sigma_fixture(8).splitlines()
        m = build_map(8, 3)
        column = [row.split("\t")[2] for row in want]
        got = ["X" if i == 3 else str(m[i - 1]) for i in range(1, 9)]
        assert got == column

    def test_order16_last_column(self):
        want = load_sigma_fixture(16).splitlines()
        m = build_map(16, 16)
        column = [row.split("\t")[15] for row in want]
        got = ["X" if i == 16 else str(m[i - 1]) for i in range(1, 17)]
        assert got == column


class TestLemma2:
    @pytest.mark.parametrize("p", [8, 16, 128])
    def test_passes(self, p):
        report = check_lemma2(p)
        assert report.passed
        assert report.counterexample is None

    def test_rejects_order_4(self):
        with pytest.raises(ValueError):
            check_lemma2(4)

    @pytest.mark.parametrize("p", [2**n for n in range(3, 9)])
    @pytest.mark.parametrize("cells", [None, 100])
    def test_part_d_matches_full_matrix_form(self, p, cells, monkeypatch):
        if cells is not None:
            # row blocks of one to 12 rows
            monkeypatch.setattr(wm, "_BLOCK_CELLS", cells)
        clean = build_all_maps(p)
        assert lemma2_d(p, clean) is None
        assert lemma2_d_reference(p, clean) is None
        rng = np.random.default_rng(p)
        hits = []
        for _ in range(6):
            cols = swap_images_at_random(clean, rng)
            with monkeypatch.context() as m:
                hits.append(lemma2_d(p, cols))
                assert hits[-1] == lemma2_d_reference(p, cols)
                report = lemma2_dense(p, cols)
                m.setattr(loop_oracles, "lemma2_d", lemma2_d_reference)
                assert lemma2_dense(p, cols) == report
        assert any(hit is not None for hit in hits)

    @pytest.mark.parametrize("p", [8, 16, 32, 64])
    def test_part_d_reports_unfixed_partner_of_deleted_point(self, p):
        # under the deletion of k = p/2 + 1 its partner, point 1, must be
        # fixed; with the images of points 1 and 2 swapped it is not, and
        # point 1 is the first to fail
        h = p // 2
        k = h + 1
        cols = build_all_maps(p).copy()
        cols[k - 1, [0, 1]] = cols[k - 1, [1, 0]]
        report = lemma2_d(p, cols)
        assert report == lemma2_d_reference(p, cols)
        assert report[:2] == (k, 1)

    @pytest.mark.parametrize("p", [8, 16, 32, 64, 128, 256, 512])
    def test_matches_loop_form_clean(self, p):
        report = check_lemma2(p)
        assert report.passed
        assert report == lemma2_loops(p, build_all_maps(p)) == lemma2_dense(p)

    @pytest.mark.parametrize("p", [8, 16, 32, 64])
    def test_matches_loop_form_under_image_swaps(self, p):
        # parts (a)-(c) come first in the report, so the loop form of (a)-(c)
        # with the shared (d) pins their counterexamples and counts
        rng = np.random.default_rng(p + 1)
        reports = []
        for _ in range(6):
            cols = swap_images_at_random(build_all_maps(p), rng)
            reports.append(lemma2_dense(p, cols))
            assert reports[-1] == lemma2_loops(p, cols)
        assert not all(r.passed for r in reports)

    @pytest.mark.parametrize("p", [8, 16, 32, 64])
    @pytest.mark.parametrize("part", ["a", "b", "c"])
    @pytest.mark.parametrize("cells", [None, 100])
    def test_matches_loop_form_when_one_part_breaks_first(
        self, monkeypatch, p, part, cells
    ):
        if cells is not None:
            # row blocks of one to 25 rows
            monkeypatch.setattr(wm, "_BLOCK_CELLS", cells)
        h = p // 2
        rng = np.random.default_rng(p)
        for _ in range(6):
            k = int(rng.integers(1, (p if part == "c" else h) + 1))
            cols = build_all_maps(p).copy()
            if part == "c":
                # under the deletion of k, the point at distance p/2 from k
                # gets another image; (a) and (b) skip that cell
                j = k + h if k <= h else k - h
                image = int(rng.choice([x for x in range(1, p + 1) if x != j]))
                cols[k - 1, j - 1] = image
                want = (k, k, j, image, j)
            else:
                # swap two images in row k, for (a); in rows k and k + p/2
                # alike, so that (a) holds and (b) breaks
                kept = np.delete(np.arange(p), [k - 1, k + h - 1])
                a, b = rng.choice(kept, size=2, replace=False)
                for row in [k - 1] if part == "a" else [k - 1, k + h - 1]:
                    cols[row, [a, b]] = cols[row, [b, a]]
                want = None
            report = lemma2_dense(p, cols)
            assert report == lemma2_loops(p, cols)
            assert report.counterexample[0] == k
            if want is not None:
                assert report.counterexample == want
            elif part == "b":
                assert report.counterexample[1] > h and report.counterexample[2] == 0

    @pytest.mark.parametrize("p", [8, 16, 32])
    def test_half_shift_property_directly(self, p):
        h = p // 2
        for k in range(1, p + 1):
            for i in range(1, h + 1):
                if k in (i, i + h):
                    continue
                assert sigma(p, k, i + h) == sigma(p, k, i) - h

    @pytest.mark.parametrize("p", [8, 16])
    def test_column_halving_directly(self, p):
        h = p // 2
        for k in range(1, h + 1):
            for i in range(1, p + 1):
                if i in (k, k + h):
                    continue
                assert sigma(p, k, i) == sigma(p, k + h, i)


# the order-4 edits of ``_SIGMA4`` that keep each row a bijection: the 12
# exchanges of two images in one row (k, x, y), 0-based
SIGMA4_EXCHANGES = [
    (k, x, y)
    for k in range(4)
    for x, y in itertools.combinations([v for v in range(4) if v != k], 2)
]
# and some that do not, (k, x, value): a duplicated image, an image equal to
# k + 1, one out of range
SIGMA4_BREAKS = [(0, 1, 2), (1, 3, 4), (2, 0, 3), (3, 2, 4), (0, 3, 1), (2, 1, 3), (1, 2, 6)]


def set_sigma4(monkeypatch, k, x, value):
    table = dm._SIGMA4.copy()
    table[k, x] = value
    monkeypatch.setattr(dm, "_SIGMA4", table)


def lemma2_outcome(check, p):
    """``check(p)``'s report, or the message of its ValueError."""
    try:
        return check(p)
    except ValueError as exc:
        return str(exc)


def rule_failures(p):
    """The failing tests of ``_Lemma2Rule`` at each (k, i, j), a (5, p, p, p)
    bool array indexed [test, k - 1, i - 1, j - 1]: each triple's digits
    followed through the layers of one walk to its final state."""
    layers, final, *fails = t1a._walk(p, dm._Lemma2Rule(p))
    b, a, c = (v.ravel() for v in np.meshgrid(*[np.arange(p)] * 3, indexing="ij"))
    code = layers[0][1][0, (a & 3) << 4 | (b & 3) << 2 | c & 3]
    for x, (states, codes, _) in enumerate(layers[1:]):
        bits = [v >> x + 2 & 1 for v in (a, b, c)]
        code = codes[np.searchsorted(states, code), bits[0] << 2 | bits[1] << 1 | bits[2]]
    at = np.searchsorted(final, code)
    return np.stack([fail[at] for fail in fails]).reshape(5, p, p, p)


def closed_form_failures(p):
    """``rule_failures(p)`` from the images of ``_sigma_closed_form`` at
    every (k, i), each test as ``check_lemma2`` states it."""
    h = p // 2
    points = np.arange(1, p + 1, dtype=np.int32)
    s = dm._sigma_closed_form(p, points[:, None], points) - 1  # [k - 1, i - 1]
    b, a, c = np.meshgrid(*[np.arange(p)] * 3, indexing="ij")
    sa, sc = s[b, a], s[b, c]
    a_kept, c_kept = a != b, c != b
    d, e = c - a, sa - sc
    return np.stack([
        c_kept & (sc == b) | a_kept & c_kept & (a != c) & (sa == sc),
        (b < h) & a_kept & (a != b ^ h) & (sa != s[b ^ h, a]),
        (a < h) & a_kept & (a + h != b) & (s[b, a ^ h] != sa - h),
        c_kept & ((c == b ^ h) != (sc == b ^ h)),
        a_kept & c_kept & (((d == h) != (e == h)) | ((d == -h) != (e == -h))),
    ])


class TestLemma2OnDigits:
    """``check_lemma2`` reads the maps' closed form off the digit automaton
    (``_Lemma2Rule``); ``lemma2_dense``, one masked scan of the map table
    per part, is its oracle."""

    ORDERS = [2**n for n in range(3, 11)]

    @pytest.mark.parametrize("p", ORDERS)
    @pytest.mark.parametrize("exchange", [None, *SIGMA4_EXCHANGES])
    def test_matches_dense_oracle(self, monkeypatch, p, exchange):
        if exchange is not None:
            k, x, y = exchange
            table = dm._SIGMA4.copy()
            table[k, [x, y]] = table[k, [y, x]]
            monkeypatch.setattr(dm, "_SIGMA4", table)
        report = check_lemma2(p)
        assert report == lemma2_dense(p)
        assert report.passed

    @pytest.mark.parametrize("p", ORDERS)
    @pytest.mark.parametrize("k, x, value", SIGMA4_BREAKS)
    def test_broken_bijection_raises_the_dense_error(self, monkeypatch, p, k, x, value):
        set_sigma4(monkeypatch, k, x, value)
        message = lemma2_outcome(check_lemma2, p)
        assert isinstance(message, str)
        assert message == lemma2_outcome(lemma2_dense, p)
        assert "is not a bijection" in message

    @pytest.mark.parametrize("p", [8, 16, 32])
    def test_rule_reads_every_triple_as_the_closed_form(self, monkeypatch, p):
        # every one-entry edit of _SIGMA4, the diagonal and values outside
        # 1..4 (which the closed form's packed residues wrap) included
        clean = dm._SIGMA4
        edits = [None] + [
            (k, x, v) for k in range(4) for x in range(4) for v in range(-1, 7)
            if v != clean[k, x]
        ]
        seen = np.zeros(5, dtype=int)
        for edit in edits:
            monkeypatch.setattr(dm, "_SIGMA4", clean)
            if edit is not None:
                set_sigma4(monkeypatch, *edit)
            want = closed_form_failures(p)
            assert np.array_equal(rule_failures(p), want), edit
            seen += want.reshape(5, -1).any(axis=1)
        # the bijection test, (c) and (d) fail under some edits; (a) and
        # (b) hold for every sigma of the closed form
        assert seen[[0, 3, 4]].all() and not seen[[1, 2]].any()

    @pytest.mark.parametrize("k, x, value", [(2, 0, 2), (1, 0, 2)])
    def test_fault_at_2_20_is_traced_to_a_confirmed_pair(self, monkeypatch, k, x, value):
        p = 2**20
        set_sigma4(monkeypatch, k, x, value)
        with pytest.raises(ValueError, match="is not a bijection") as info:
            check_lemma2(p)
        test, k, i, j = dm._lemma2_failure(p)
        assert test == 0
        assert str(info.value) == f"map {k} is not a bijection onto the points other than {k}"
        # under the deletion of k, j goes to k, or i and j, apart, share an image
        images = [int(sigma_values(p, k, v)) for v in (i, j) if v != k]
        assert [sigma_reference(p, k, v) for v in (i, j) if v != k] == images
        assert images[-1] == k or (i != j and len(images) == 2 and images[0] == images[1])
        # and every map before k is a bijection
        for before in range(1, k):
            build_map(p, before)
        with pytest.raises(ValueError, match=f"map {k} is not a bijection"):
            build_map(p, k)

    @pytest.mark.parametrize("p", [2**30, 2**31, 2**40])
    def test_reach(self, p):
        if p <= 2**30:
            assert check_lemma2(p).passed
        else:
            with pytest.raises(ValueError, match="up to 2\\*\\*30"):
                check_lemma2(p)

    def test_cold_memory_holds_no_table(self):
        import tracemalloc

        tracemalloc.start()
        try:
            report = check_lemma2(8192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        # the map table alone is 4 * 8192**2 bytes = 268 MB
        assert peak < 2 * 1024 * 1024


class TestExtendSigmaP1:
    def test_fixes_point_one(self):
        ext = extend_sigma_p1(8)
        assert ext[0] == 1
        assert ext[1] == 8

    def test_is_bijection(self):
        assert sorted(extend_sigma_p1(8)) == list(range(1, 9))

    def test_restriction_matches_map(self):
        assert np.array_equal(extend_sigma_p1(16)[1:], build_all_maps(16)[0, 1:])

    def test_requires_order_8(self):
        with pytest.raises(ValueError):
            extend_sigma_p1(4)

    def test_leaves_the_table_alone(self):
        extend_sigma_p1(16)
        assert build_all_maps(16)[0, 0] == 0


def _clean_tables(p):
    return build_all_maps(p).copy()


def _sweep_pairs(p):
    """The (a, b) pairs each deletion map carries onto each other at order
    p: the weighted pair read through each table of ``level_tables``, and
    each digraph pair."""
    plain = entry_grid(p, MatrixVariant.PLAIN)
    star = entry_grid(p, MatrixVariant.STAR)
    pairs = [(lut[plain], lut[star]) for lut in t1a.level_tables(p).values()]
    pairs.append(tuple(g.adjacency for g in standard_pair(p)))
    if p >= 8:
        pairs.append(tuple(g.adjacency for g in variant_pair(p)))
    return pairs


class TestDeletionSweep:
    @pytest.mark.parametrize("p", [2**n for n in range(2, 8)])
    def test_matches_reference_on_clean_tables(self, p):
        tables = _clean_tables(p)
        for a, b in _sweep_pairs(p):
            assert dm._deletion_sweep(a, b, tables) is None
            # the reversed and the self pair fail somewhere; same report
            for x, y in ((b, a), (a, a)):
                report = dm._deletion_sweep(x, y, tables)
                assert report == deletion_sweep_reference(x, y, tables)

    @pytest.mark.parametrize("p", [8, 16, 64, 128])
    def test_smaller_of_two_faulty_deletions_is_reported(self, p):
        big, small = p // 2 + 1, p // 4 + 1
        for a, b in _sweep_pairs(p):
            tables = _clean_tables(p)
            tables[big - 1] = swap_two_images(tables[big - 1], big)
            report = dm._deletion_sweep(a, b, tables)
            assert report[0] == big
            assert report == deletion_sweep_reference(a, b, tables)
            tables[small - 1] = swap_two_images(tables[small - 1], small)
            report = dm._deletion_sweep(a, b, tables)
            assert report[0] == small
            assert report == deletion_sweep_reference(a, b, tables)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_reference_on_random_tables(self, data):
        p = data.draw(st.sampled_from([8, 16]))
        pairs = _sweep_pairs(p)
        a, b = pairs[data.draw(st.integers(0, len(pairs) - 1))]
        tables = _clean_tables(p)
        for k in data.draw(st.sets(st.integers(1, p), max_size=3)):
            images = data.draw(st.lists(st.integers(1, p), min_size=p, max_size=p))
            tables[k - 1] = np.array(images, dtype=np.int32)
        b = b.copy()
        cells = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))
        for i, j in data.draw(st.lists(cells, max_size=3)):
            b[i, j] = 1 - b[i, j]
        assert dm._deletion_sweep(a, b, tables) == deletion_sweep_reference(a, b, tables)

    @pytest.mark.parametrize("p", [8, 16, 32, 64, 128])
    @pytest.mark.parametrize(
        "fault", ["map-rows", "plain-cell", "star-cell", "star-3-to-4"]
    )
    def test_level_tables_match_reference_on_seeded_faults(self, p, fault):
        # the weighted pair read through theorem 1's identity and both
        # pairs' bit tables, one sweep per table, against the reference
        rng = np.random.default_rng(p)
        luts = t1a.level_tables(p)
        for _ in range(4):
            plain = entry_grid(p, MatrixVariant.PLAIN)
            star = entry_grid(p, MatrixVariant.STAR)
            tables = _clean_tables(p)
            if fault == "map-rows":
                tables = swap_images_at_random(tables, rng)
            elif fault == "star-3-to-4":
                # a starred level 3 becomes 4, which both pairs read as one bit
                threes = np.argwhere(star == 3)
                i, j = threes[rng.integers(len(threes))]
                star[i, j] = 4
            else:
                edited = plain if fault == "plain-cell" else star
                i, j = rng.choice(p, size=2, replace=False)
                top = p.bit_length()  # n + 1, the extreme level
                levels = [v for v in range(-top, top + 1) if v not in (0, edited[i, j])]
                edited[i, j] = rng.choice(levels)
            reports = {}
            for name, lut in luts.items():
                a, b = lut[plain], lut[star]
                reports[name] = dm._deletion_sweep(a, b, tables)
                assert reports[name] == deletion_sweep_reference(a, b, tables)
            # every fault changes a level somewhere that the maps read
            assert reports["theorem1"] is not None
            if fault == "star-3-to-4":
                theorem1 = reports.pop("theorem1")
                assert theorem1[3:] == (3, 4)
                assert list(reports.values()) == [None] * len(reports)

    @pytest.mark.parametrize("p", [4, 8, 16, 64])
    def test_sweep_sees_a_one_cell_edit_anywhere(self, p):
        # every cell up to p = 16; above, every cell of the first two rows,
        # which the first two deletions leave out in turn, and of the last
        if p <= 16:
            cells = list(np.ndindex(p, p))
        else:
            cells = [(i, j) for i in (0, 1, p - 1) for j in range(p)]
        tables = _clean_tables(p)
        for a, b in _sweep_pairs(p):
            for side in range(2):
                for i, j in cells:
                    pair = [a.copy(), b.copy()]
                    pair[side][i, j] = 1 - pair[side][i, j]
                    report = dm._deletion_sweep(*pair, tables)
                    assert report == deletion_sweep_reference(*pair, tables)
                    assert report is not None, (side, i, j)

    @pytest.mark.parametrize("p", [8, 32, 128])
    def test_scrambled_map_rows_match_reference(self, p):
        # a scrambled map row makes most cells of its deletion differ; a
        # table reading only the bottom level (absent from a's first p/2
        # rows) still fails there, and a table reading every level as one
        # value stays clean
        rng = np.random.default_rng(p)
        bottom = np.zeros_like(t1a._INT8_IDENTITY)
        bottom[-p.bit_length()] = 1
        luts = [*t1a.level_tables(p).values(), bottom, np.zeros_like(bottom)]
        plain = entry_grid(p, MatrixVariant.PLAIN)
        star = entry_grid(p, MatrixVariant.STAR)
        tables = _clean_tables(p)
        for k in rng.choice(np.arange(1, p + 1), size=2, replace=False):
            tables[k - 1] = rng.permutation(p).astype(tables.dtype) + 1
        reports = [dm._deletion_sweep(lut[plain], lut[star], tables) for lut in luts]
        for lut, report in zip(luts, reports):
            assert report == deletion_sweep_reference(lut[plain], lut[star], tables)
        assert reports[0] is not None
        assert reports[-2] is not None
        assert reports[-1] is None

    @pytest.mark.parametrize("p", [8, 16, 64])
    def test_differences_in_the_deleted_row_and_column_do_not_count(self, p):
        # at every deletion of the clean pair, b's row and column at the
        # deleted point, gathered through the map, differ from a's; the
        # block copy holds a's there, so the pair passes, and a fault at
        # one later deletion is still the first
        a, b = _sweep_pairs(p)[0]
        tables = _clean_tables(p)
        for k in range(1, p + 1):
            idx = tables[k - 1].astype(np.int64) - 1
            idx[k - 1] = k - 1
            assert (b[k - 1, idx] != a[k - 1]).any()
            assert (b[idx, k - 1] != a[:, k - 1]).any()
        assert dm._deletion_sweep(a, b, tables) is None
        bad_k = p // 2 + 1
        tables[bad_k - 1] = swap_two_images(tables[bad_k - 1], bad_k)
        report = dm._deletion_sweep(a, b, tables)
        assert report[0] == bad_k
        assert report == deletion_sweep_reference(a, b, tables)
