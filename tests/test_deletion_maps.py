import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recon_census.deletion_maps as dm
from recon_census.deletion_maps import (
    DeletionMap,
    ExtendedMap,
    base_sigma,
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

from conftest import load_sigma_fixture, swap_two_images


class TestSigmaValues:
    def test_printed_values(self):
        assert sigma(8, 1, 2) == 8
        assert sigma(8, 1, 5) == 5
        assert sigma(16, 1, 9) == 9
        assert sigma(16, 2, 5) == 11

    def test_base_tables(self):
        assert [base_sigma(1).apply(i) for i in (2, 3, 4)] == [4, 2, 3]
        assert [base_sigma(4).apply(i) for i in (1, 2, 3)] == [2, 3, 1]

    def test_deleted_point_undefined(self):
        with pytest.raises(ValueError):
            sigma(8, 2, 2)
        with pytest.raises(ValueError):
            base_sigma(2).apply(2)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            sigma(8, 0, 1)
        with pytest.raises(IndexError):
            sigma(8, 1, 9)

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

    def test_vectorized_rejects_deleted_point(self):
        with pytest.raises(ValueError):
            sigma_values(8, np.array([1, 2]), np.array([2, 2]))


class TestBuildMap:
    @pytest.mark.parametrize("p", [4, 8, 16, 32])
    def test_bijectivity_every_column(self, p):
        for k in range(1, p + 1):
            m = build_map(p, k)
            images = sorted(image for _, image in m.items())
            assert images == [v for v in range(1, p + 1) if v != k]

    def test_base_case_equality(self):
        assert build_map(4, 2) == base_sigma(2)

    def test_tables_cached(self):
        assert build_map(8, 3).table is build_map(8, 3).table

    def test_absent_slot_is_zero(self):
        m = build_map(8, 5)
        assert m.table[4] == 0

    def test_table_read_only(self):
        with pytest.raises(ValueError):
            build_map(8, 1).table[2] = 9

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            DeletionMap(4, 1, np.array([0, 4, 4, 3]))
        with pytest.raises(ValueError):
            DeletionMap(4, 1, np.array([1, 4, 2, 3]))

    def test_build_all_maps(self):
        maps = build_all_maps(8)
        assert len(maps) == 8
        assert [m.deleted_point for m in maps] == list(range(1, 9))


class TestGoldenTables:
    @pytest.mark.parametrize("p", [4, 8, 16])
    def test_tsv_matches_fixture(self, p):
        assert sigma_table_tsv(p) == load_sigma_fixture(p)

    def test_single_column_via_build_map(self):
        want = load_sigma_fixture(8).splitlines()
        m = build_map(8, 3)
        column = [row.split("\t")[2] for row in want]
        got = ["X" if i == 3 else str(m.apply(i)) for i in range(1, 9)]
        assert got == column

    def test_order16_last_column(self):
        want = load_sigma_fixture(16).splitlines()
        m = build_map(16, 16)
        column = [row.split("\t")[15] for row in want]
        got = ["X" if i == 16 else str(m.apply(i)) for i in range(1, 17)]
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
    def test_part_d_matches_full_matrix_form(self, p, monkeypatch):
        clean = [dm._map_table(p, k) for k in range(1, p + 1)]
        assert dm._lemma2_d(p, clean) is None
        assert dm._lemma2_d_reference(p, clean) is None
        real = dm._map_table
        rng = np.random.default_rng(p)
        hits = []
        for _ in range(6):
            # swap the images of two kept points in a few tables: each table
            # stays a bijection, so only the identities can break
            swaps = {}
            for k in rng.choice(np.arange(1, p + 1), size=3, replace=False):
                kept = np.delete(np.arange(p), k - 1)
                swaps[int(k)] = rng.choice(kept, size=2, replace=False)

            def patched(q, k, swaps=swaps):
                table = real(q, k)
                if q == p and k in swaps:
                    table = table.copy()
                    a, b = swaps[k]
                    table[[a, b]] = table[[b, a]]
                return table

            monkeypatch.setattr(dm, "_map_table", patched)
            cols = [dm._map_table(p, k) for k in range(1, p + 1)]
            hits.append(dm._lemma2_d(p, cols))
            assert hits[-1] == dm._lemma2_d_reference(p, cols)
            report = check_lemma2(p)
            monkeypatch.setattr(dm, "_lemma2_d", dm._lemma2_d_reference)
            assert check_lemma2(p) == report
            monkeypatch.undo()
        assert any(hit is not None for hit in hits)

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


class TestExtendedMap:
    def test_fixes_point_one(self):
        ext = extend_sigma_p1(8)
        assert ext.apply(1) == 1
        assert ext.apply(2) == 8

    def test_is_bijection(self):
        ext = extend_sigma_p1(8)
        assert sorted(ext.apply(i) for i in range(1, 9)) == list(range(1, 9))

    def test_restriction_matches_map(self):
        ext = extend_sigma_p1(16)
        m = build_map(16, 1)
        for i in range(2, 17):
            assert ext.apply(i) == m.apply(i)

    def test_requires_order_8(self):
        with pytest.raises(ValueError):
            extend_sigma_p1(4)

    def test_direct_construction_validates(self):
        good = extend_sigma_p1(8).as_array().copy()
        ExtendedMap(8, good)
        bad = good.copy()
        bad[[1, 2]] = bad[[2, 1]]
        with pytest.raises(ValueError):
            ExtendedMap(8, bad)


def _clean_tables(p):
    return [dm._map_table(p, k) for k in range(1, p + 1)]


def _sweep_pairs(p):
    """The (a, b) pairs each deletion map carries onto each other at order p."""
    pairs = [(entry_grid(p, MatrixVariant.PLAIN), entry_grid(p, MatrixVariant.STAR))]
    g, h = standard_pair(p)
    pairs.append((g.adjacency, h.adjacency))
    if p >= 8:
        g, h = variant_pair(p)
        pairs.append((g.adjacency, h.adjacency))
    return pairs


class TestDeletionSweep:
    @pytest.mark.parametrize("p", [2**n for n in range(2, 11)])
    def test_gray_slots_flip_one_bit_per_step(self, p):
        slots = dm._gray_slots(p)
        assert sorted(slots) == list(range(p))
        assert slots[0] == 0
        steps = [a ^ b for a, b in zip(slots, slots[1:])]
        assert all(s & (s - 1) == 0 for s in steps)
        # half of the steps flip the top bit
        assert steps.count(p // 2) == p // 2
        # the order's own tables change in about p * log2(p) slots in all
        n = p.bit_length() - 1
        tables = _clean_tables(p)
        changed = sum(
            int(np.count_nonzero(tables[s] != tables[t]))
            for s, t in zip(slots, slots[1:])
        )
        assert changed <= (n + 2) * p

    @pytest.mark.parametrize("p", [2**n for n in range(2, 8)])
    def test_matches_reference_on_clean_tables(self, p):
        tables = _clean_tables(p)
        for a, b in _sweep_pairs(p):
            assert dm._deletion_sweep(a, b, tables) == (None, p * (p - 1) ** 2)
            # the reversed and the self pair fail somewhere; same report
            for x, y in ((b, a), (a, a)):
                report = dm._deletion_sweep(x, y, tables)
                assert report == dm._deletion_sweep_reference(x, y, tables)

    @pytest.mark.parametrize("p", [8, 16, 64, 128])
    def test_smaller_of_two_faulty_deletions_is_reported(self, p):
        slots = dm._gray_slots(p)
        big, small = p // 2 + 1, p // 4 + 1
        assert slots.index(big - 1) < slots.index(small - 1)
        for a, b in _sweep_pairs(p):
            tables = _clean_tables(p)
            tables[big - 1] = swap_two_images(tables[big - 1], big)
            report = dm._deletion_sweep(a, b, tables)
            assert report[0][0] == big
            assert report == dm._deletion_sweep_reference(a, b, tables)
            tables[small - 1] = swap_two_images(tables[small - 1], small)
            report = dm._deletion_sweep(a, b, tables)
            assert report[0][0] == small
            assert report == dm._deletion_sweep_reference(a, b, tables)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_reference_on_random_tables(self, data):
        p = data.draw(st.sampled_from([8, 16]))
        a, b = _sweep_pairs(p)[data.draw(st.integers(0, 2))]
        tables = _clean_tables(p)
        for k in data.draw(st.sets(st.integers(1, p), max_size=3)):
            images = data.draw(st.lists(st.integers(1, p), min_size=p, max_size=p))
            tables[k - 1] = np.array(images, dtype=np.int32)
        b = b.copy()
        cells = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))
        for i, j in data.draw(st.lists(cells, max_size=3)):
            b[i, j] = 1 - b[i, j]
        assert dm._deletion_sweep(a, b, tables) == dm._deletion_sweep_reference(
            a, b, tables
        )
