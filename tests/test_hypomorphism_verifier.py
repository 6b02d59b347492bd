from collections import Counter

import numpy as np
import pytest

import recon_census.blocks as blocks
import recon_census.hypomorphism_verifier as hv
import recon_census.iso_engine as ie
import recon_census.weight_matrix as wm
from recon_census.deletion_maps import build_all_maps, sigma, sigma_values
from recon_census.digraph_builder import (
    Digraph,
    _bit_lut,
    tournament_assignment,
    variant_assignment,
)
from recon_census.hypomorphism_verifier import (
    check_lemma3,
    check_theorem1,
    sample_theorem1,
)
from recon_census.iso_engine import verify_hypomorphic_by_sigma
from recon_census.report import VerificationReport
from recon_census.weight_matrix import MatrixVariant, build_dense

from conftest import patch_dense, swap_images_at_random
from loop_oracles import (
    deletion_sweep_reference,
    hypomorphisms_reference,
    lemma3_loops,
    sample_theorem1_reference,
)

PLAIN = MatrixVariant.PLAIN
STAR = MatrixVariant.STAR


class TestLemma3:
    @pytest.mark.parametrize("p", [4, 8, 32])
    def test_passes(self, p):
        report = check_lemma3(p)
        assert report.passed
        assert report.checked_count == 2 * p * (p - 1)

    def test_minus_sign_everywhere_at_order_4(self):
        m = build_dense(4, PLAIN)
        ms = build_dense(4, STAR)
        for i in range(1, 5):
            for j in range(1, 5):
                if i == j:
                    continue
                assert m.entry(i, j) == -ms.entry(i, sigma(4, i, j))
                assert m.entry(i, j) == -ms.entry(sigma(4, j, i), j)

    def test_minus_sign_only_at_half_offset_for_order_8(self):
        m = build_dense(8, PLAIN)
        ms = build_dense(8, STAR)
        for i in range(1, 9):
            for j in range(1, 9):
                if i == j:
                    continue
                s = -1 if abs(i - j) == 4 else 1
                assert m.entry(i, j) == s * ms.entry(i, sigma(8, i, j))


class TestLemma3LoopOracle:
    """The automaton's planes report as the per-point loops do on the entry
    grids and the map table; ``test_theorem1_automaton`` holds them to the
    loops under class-table faults and ``_SIGMA4`` swaps."""

    @staticmethod
    def loops(p, tables):
        return lemma3_loops(p, wm.entry_grid(p, PLAIN), wm.entry_grid(p, STAR), tables)

    @pytest.mark.parametrize("p", [4, 8, 16, 32, 64, 128, 256, 512])
    def test_clean(self, p):
        report = check_lemma3(p)
        assert report.passed
        assert report == self.loops(p, build_all_maps(p))

    @pytest.mark.parametrize("p", [8, 16, 32, 64])
    def test_seeded_image_swaps(self, tables, p):
        # in three seeded rows of the order-4 maps, two images exchanged:
        # every row stays a bijection, so only the identities can break
        rng = np.random.default_rng(p)
        reports = []
        for _ in range(6):
            swaps = []
            for k in rng.choice(4, size=3, replace=False):
                kept = [x for x in range(4) if x != k]
                swaps.append((int(k), *map(int, rng.choice(kept, size=2, replace=False))))
            for swap in swaps:
                tables.sigma_swap(*swap)
            reports.append(check_lemma3(p))
            assert reports[-1] == self.loops(p, build_all_maps(p)), swaps
            for swap in swaps:
                tables.sigma_swap(*swap)  # undone
        assert not all(r.passed for r in reports)

    @pytest.mark.parametrize("p", [4, 8, 16, 32, 64])
    @pytest.mark.parametrize("variant", [PLAIN, STAR])
    @pytest.mark.parametrize("cells", [None, 100])
    def test_single_cell_edits(self, monkeypatch, tables, p, variant, cells):
        if cells is not None:
            # the loops' entry grids in row blocks of one to 25 rows
            monkeypatch.setattr(blocks, "_BLOCK_CELLS", cells)
        rng = np.random.default_rng(p)
        top = p.bit_length()  # the extreme level n + 1
        clean = wm._class_blocks(variant)
        reports = []
        for _ in range(8):
            row = int(rng.choice(wm._reached_rows(p)))
            r, c = map(int, rng.integers(0, 4, size=2))
            levels = [v for v in range(-top, top + 1) if v != clean[row, r, c]]
            tables.class_cell(variant, row, r, c, int(rng.choice(levels)))
            reports.append(check_lemma3(p))
            assert reports[-1] == self.loops(p, build_all_maps(p)), (row, r, c)
        assert not all(r.passed for r in reports)

    @staticmethod
    def cell_key(p, i, j):
        """The class-table cell (row, r, c) of entries (i, j), as one integer."""
        a, b = np.asarray(i, dtype=np.int32) - 1, np.asarray(j, dtype=np.int32) - 1
        return wm._offset_class((b >> 2) - (a >> 2)).astype(np.int64) << 4 | (a & 3) << 2 | b & 3

    @pytest.mark.parametrize("p", [4, 8, 16, 32, 64])
    def test_edit_only_the_second_equality_sees(self, monkeypatch, p):
        # change alike the plain and starred class-table cells of one
        # component of the first equality's pairing, one that the second
        # equality's pairing leaves: the first equality still holds
        # everywhere, and the second fails at an entry of an edited cell
        tables = build_all_maps(p)
        rows, cols = np.indices((p, p)) + 1
        i, j = rows[rows != cols], cols[rows != cols]
        sign = np.where((p == 4) | (np.abs(i - j) == p // 2), -1, 1)
        plain = self.cell_key(p, i, j)
        first = self.cell_key(p, i, tables[i - 1, j - 1])  # star(i, sigma_i(j))
        second = self.cell_key(p, tables[j - 1, i - 1], j)  # star(sigma_j(i), j)
        edges = {}  # (0, plain cell) and (1, starred cell), with the sign
        for x, y, s in set(zip(plain.tolist(), first.tolist(), sign.tolist())):
            edges.setdefault((0, x), []).append(((1, y), s))
            edges.setdefault((1, y), []).append(((0, x), s))
        top = p.bit_length()  # the extreme level n + 1
        rng = np.random.default_rng(p)
        seen, edits = set(), 0
        for root in sorted(edges):
            if root in seen:
                continue
            old = wm._class_blocks(PLAIN).flat[root[1]]
            value = {root: int(rng.choice([v for v in range(-top, top + 1) if v != old]))}
            queue = [root]
            while queue:
                u = queue.pop()
                for w, s in edges[u]:
                    if w not in value:
                        value[w] = s * value[u]
                        queue.append(w)
                    assert value[w] == s * value[u]  # one sign around each cycle
            seen |= value.keys()
            cells = [{c for t, c in value if t == side} for side in (0, 1)]
            if np.array_equal(np.isin(plain, list(cells[0])), np.isin(second, list(cells[1]))):
                continue  # the second equality pairs the component within itself
            with monkeypatch.context() as m:
                for side, variant in enumerate((PLAIN, STAR)):
                    table = wm._class_blocks(variant).copy()
                    for cell in cells[side]:
                        table.flat[cell] = value[side, cell]
                    m.setitem(blocks._CLASS_TABLE, variant, table.tobytes())
                report = check_lemma3(p)
                assert report == self.loops(p, tables)
                assert not report.passed
                _, ci, cj, lhs, rhs = report.counterexample
                # a pair of the second equality, at an entry of an edited cell
                row_point = int(tables[cj - 1, ci - 1])
                c_sign = -1 if p == 4 or abs(ci - cj) == p // 2 else 1
                assert lhs == int(wm.entry_values(p, PLAIN, ci, cj))
                assert rhs == c_sign * int(wm.entry_values(p, STAR, row_point, cj))
                assert lhs != rhs
                assert (
                    int(self.cell_key(p, ci, cj)) in cells[0]
                    or int(self.cell_key(p, row_point, cj)) in cells[1]
                )
            edits += 1
        assert edits >= 4


class TestTheorem1:
    def test_order_4_triple_count(self):
        report = check_theorem1(4)
        assert report.passed
        assert report.checked_count == 36

    @pytest.mark.parametrize("p", [8, 16, 64])
    def test_passes(self, p):
        report = check_theorem1(p)
        assert report.passed
        assert report.checked_count == p * (p - 1) ** 2

    def test_spot_instance(self):
        # k=3, i=1, j=2 at order 8: both sides equal 1
        m = build_dense(8, PLAIN)
        ms = build_dense(8, STAR)
        assert m.entry(1, 2) == 1
        assert sigma(8, 3, 1) == 8 and sigma(8, 3, 2) == 5
        assert ms.entry(8, 5) == 1

    @pytest.mark.parametrize("p", [8, 16])
    def test_weighted_deck_multisets_agree(self, p):
        # consequence: deleting any point leaves entry multisets equal
        m = build_dense(p, PLAIN).entries
        ms = build_dense(p, STAR).entries
        for k in range(p):
            keep = [v for v in range(p) if v != k]
            sub = m[np.ix_(keep, keep)]
            sub_star = ms[np.ix_(keep, keep)]
            assert Counter(sub.ravel().tolist()) == Counter(sub_star.ravel().tolist())


class TestDenseRoute:
    """``check_theorem1(p)`` is the block-copy sweep's report, and the
    dense route of the automaton's tests (``hypomorphisms_reference``)
    reads each digraph pair as ``verify_hypomorphic_by_sigma`` does on the
    pair read from the same level matrices and map table."""

    @staticmethod
    def expected(p):
        plain = hv.build_dense(p, PLAIN).entries
        star = hv.build_dense(p, STAR).entries
        theorem1 = deletion_sweep_reference(plain, star, hv.build_all_maps(p))
        reports = [VerificationReport("theorem1", p, theorem1, p * (p - 1) ** 2)]
        n = p.bit_length() - 1
        assignments = {"hypo-sigma-tournament": tournament_assignment(n)}
        if p >= 8:
            assignments["hypo-sigma-variant"] = variant_assignment(n)
        for name, a in assignments.items():
            g, h = (Digraph(p, _bit_lut(a)[m]) for m in (plain, star))
            report = verify_hypomorphic_by_sigma(g, h)
            reports.append(report._replace(check_name=name))
        return reports

    @pytest.mark.parametrize(
        "fault, p",
        [
            (fault, p)
            for fault in ("none", "map-rows", "entry", "star-3-to-4")
            # level 4 exists from p = 8 on
            for p in [4, 8, 16, 32, 64, 128, 256][fault == "star-3-to-4" :]
        ],
    )
    def test_equals_theorem1_reference_and_per_pair_sweeps(self, monkeypatch, p, fault):
        rng = np.random.default_rng(p)
        for _ in range(1 if fault == "none" else 3):
            with monkeypatch.context() as m:
                if fault == "map-rows":
                    tables = swap_images_at_random(build_all_maps(p), rng)
                    for module in (hv, ie):
                        m.setattr(module, "build_all_maps", lambda q, t=tables: t)
                elif fault == "entry":
                    i, j = rng.choice(p, size=2, replace=False)
                    top = p.bit_length()  # n + 1, the extreme level

                    def edit(entries, i=i, j=j):
                        levels = [v for v in range(-top, top + 1) if v not in (0, entries[i, j])]
                        entries[i, j] = rng.choice(levels)

                    patch_dense(m, hv, p, rng.choice([PLAIN, STAR]), edit)
                elif fault == "star-3-to-4":

                    def edit(entries):
                        threes = np.argwhere(entries == 3)
                        i, j = threes[rng.integers(len(threes))]
                        entries[i, j] = 4

                    patch_dense(m, hv, p, STAR, edit)
                reports = hypomorphisms_reference(p)
                assert reports == self.expected(p)
                assert check_theorem1(p) == reports[0]
            theorem1, *pairs = reports
            assert [r.check_name for r in pairs] == (
                ["hypo-sigma-tournament", "hypo-sigma-variant"][: 1 + (p >= 8)]
            )
            # every fault changes a level that some deletion map reads
            assert theorem1.passed == (fault == "none")
            if fault == "star-3-to-4":
                # both pairs read 3 and 4 as one bit
                assert theorem1.counterexample[3:] == (3, 4)
                assert all(r.passed for r in pairs)


class TestSampleTheorem1:
    def test_refuses_orders_above_int32(self):
        # its int32 draws would wrap above 2**31
        with pytest.raises(ValueError, match="orders up to 2"):
            sample_theorem1(2**40, 10, rng_seed=0)

    def test_small_order_subsumed_by_exhaustive(self):
        report = sample_theorem1(8, 100, rng_seed=7)
        assert report.passed
        assert report.checked_count == 100
        assert report.seed == 7

    def test_large_order(self):
        report = sample_theorem1(4096, 50_000, rng_seed=1)
        assert report.passed

    def test_deterministic_under_seed(self):
        a = sample_theorem1(64, 5_000, rng_seed=42)
        b = sample_theorem1(64, 5_000, rng_seed=42)
        assert a == b

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            sample_theorem1(8, 0, rng_seed=1)

    @pytest.mark.parametrize("block", ["default", 7])
    @pytest.mark.parametrize("faulty", [False, True])
    @pytest.mark.parametrize("p", [64, 1024])
    def test_equals_triple_by_triple_reference(self, monkeypatch, p, faulty, block):
        trials, seed = 5_000, 11
        if block != "default":
            monkeypatch.setattr(hv, "_EVAL_BLOCK", block)
        if faulty:
            # one starred cell changed, in the entry oracles of both forms: the
            # mapped pair of the first triple from index 100 on (in a later
            # block of 7) whose pair no earlier triple maps to
            rng = np.random.default_rng(seed)
            k = rng.integers(1, p + 1, size=trials)
            i = rng.integers(1, p, size=trials)
            j = rng.integers(1, p, size=trials)
            i += i >= k
            j += j >= k
            cells = sigma_values(p, k, i).astype(np.int64) * (p + 1) + sigma_values(p, k, j)
            t = next(t for t in range(100, trials) if cells[t] not in cells[:t])
            cell = divmod(int(cells[t]), p + 1)
            entry_values, entry_at = hv.entry_values, wm.entry_at

            def faulty_values(q, variant, rows, cols):
                out = entry_values(q, variant, rows, cols)
                if variant is STAR:
                    out = out + ((rows == cell[0]) & (cols == cell[1]))
                return out

            def faulty_at(q, variant, row, col):
                return entry_at(q, variant, row, col) + (variant is STAR and (row, col) == cell)

            monkeypatch.setattr(hv, "entry_values", faulty_values)
            monkeypatch.setattr(wm, "entry_at", faulty_at)

        report = sample_theorem1(p, trials, rng_seed=seed)
        assert report == sample_theorem1_reference(p, trials, rng_seed=seed)
        if faulty:
            assert report.counterexample[:3] == (k[t], i[t], j[t])
        else:
            assert report.passed

    def test_memory_does_not_grow_with_the_order(self):
        # the entry oracle gathers from the order-free class table, so the
        # scratch memory is that of one sample chunk, at 2**24 as at 2**4
        import tracemalloc

        tracemalloc.start()
        try:
            report = sample_theorem1(wm.ORACLE_ORDER_LIMIT, 10**5, rng_seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.checked_count == 10**5
        assert peak < 16 * 2**20, peak


class TestReportShape:
    def test_verdict_follows_counterexample(self):
        clean = VerificationReport("x", 8, None, 1)
        failed = VerificationReport("x", 8, (0, 1, 2, 3, 4), 1)
        assert clean.passed and not failed.passed
        assert clean.to_json_dict()["outcome"] == "pass"
        doc = failed.to_json_dict()
        assert doc["outcome"] == "fail"
        assert doc["counterexample"] == {"k": 0, "i": 1, "j": 2, "lhs": 3, "rhs": 4}
        assert str(clean) == "x(p=8): pass [1 checked]"
        assert str(failed) == "x(p=8): FAIL at (0, 1, 2, 3, 4) [1 checked]"
        # the verdict is read from the counterexample, not stored beside it
        assert "outcome" not in failed._fields

    def test_json_fields(self):
        doc = check_theorem1(8).to_json_dict()
        assert doc["schema"] == "1.0.0"
        assert set(doc) == {"schema", "check", "p", "outcome", "checked"}
        assert doc["outcome"] == "pass"

    def test_json_seed_field(self):
        doc = sample_theorem1(8, 10, rng_seed=3).to_json_dict()
        assert doc["seed"] == 3
