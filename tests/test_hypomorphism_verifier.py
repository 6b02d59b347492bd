import dataclasses
from collections import Counter

import numpy as np
import pytest

import recon_census.hypomorphism_verifier as hv
import recon_census.weight_matrix as wm
from recon_census.deletion_maps import build_all_maps, sigma
from recon_census.hypomorphism_verifier import (
    check_lemma3,
    check_theorem1,
    sample_theorem1,
)
from recon_census.report import VerificationReport
from recon_census.weight_matrix import MatrixVariant, build_dense

from conftest import patch_dense, swap_images_at_random
from loop_oracles import lemma3_loops

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
    """The row-block scans report as the per-point loops do on the same inputs."""

    @staticmethod
    def loops(p, tables):
        return lemma3_loops(
            p, hv.build_dense(p, PLAIN).entries, hv.build_dense(p, STAR).entries, tables
        )

    @pytest.mark.parametrize("p", [4, 8, 16, 32, 64, 128, 256, 512])
    def test_clean(self, p):
        report = check_lemma3(p)
        assert report.passed
        assert report == self.loops(p, build_all_maps(p))

    @pytest.mark.parametrize("p", [8, 16, 32, 64])
    def test_seeded_image_swaps(self, monkeypatch, p):
        rng = np.random.default_rng(p)
        reports = []
        for _ in range(6):
            tables = swap_images_at_random(build_all_maps(p), rng)
            monkeypatch.setattr(hv, "build_all_maps", lambda q, t=tables: t)
            reports.append(check_lemma3(p))
            assert reports[-1] == self.loops(p, tables)
        assert not all(r.passed for r in reports)

    @pytest.mark.parametrize("p", [4, 8, 16, 32, 64])
    @pytest.mark.parametrize("variant", [PLAIN, STAR])
    @pytest.mark.parametrize("cells", [None, 100])
    def test_single_cell_edits(self, monkeypatch, p, variant, cells):
        if cells is not None:
            # row blocks of one to 25 rows
            monkeypatch.setattr(wm, "_BLOCK_CELLS", cells)
        rng = np.random.default_rng(p)
        top = p.bit_length()  # the extreme level n + 1
        reports = []
        for i, j in rng.integers(0, p, size=(8, 2)):

            def edit(entries, i=i, j=j):
                levels = [v for v in range(-top, top + 1) if v != entries[i, j]]
                entries[i, j] = rng.choice(levels)

            with monkeypatch.context() as m:
                patch_dense(m, hv, p, variant, edit)
                reports.append(check_lemma3(p))
                assert reports[-1] == self.loops(p, build_all_maps(p))
        assert not all(r.passed for r in reports)

    @pytest.mark.parametrize("p", [4, 8, 16, 32, 64])
    def test_edit_only_the_second_equality_sees(self, monkeypatch, p):
        # change plain(i, j) and the starred entry the first equality pairs it
        # with alike: the first equality still holds everywhere, and the
        # second fails in the column of one of the two edited cells (if the
        # starred cell were (i, j) itself, nothing would read the change)
        tables = build_all_maps(p)
        clean = build_dense(p, PLAIN).entries
        top = p.bit_length()  # the extreme level n + 1
        rng = np.random.default_rng(p)
        cells = [(i, j) for i, j in np.ndindex(p, p) if i != j and tables[i, j] != j + 1]
        for c in rng.choice(len(cells), size=4, replace=False):
            i, j = cells[c]
            sign = -1 if p == 4 or abs(i - j) == p // 2 else 1
            value = int(rng.choice([v for v in range(-top, top + 1) if v != clean[i, j]]))

            def set_plain(entries, i=i, j=j, value=value):
                entries[i, j] = value

            def set_star(entries, i=i, j=j, value=value):
                entries[i, tables[i, j] - 1] = sign * value

            with monkeypatch.context() as m:
                plain = patch_dense(m, hv, p, PLAIN, set_plain)
                star = patch_dense(m, hv, p, STAR, set_star)
                report = check_lemma3(p)
            assert report == lemma3_loops(p, plain, star, tables)
            assert not report.passed
            assert report.counterexample[2] in (j + 1, tables[i, j])


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


class TestSampleTheorem1:
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
        assert "outcome" not in {f.name for f in dataclasses.fields(failed)}

    def test_json_fields(self):
        doc = check_theorem1(8).to_json_dict()
        assert doc["schema"] == "1.0.0"
        assert set(doc) == {"schema", "check", "p", "outcome", "checked"}
        assert doc["outcome"] == "pass"

    def test_json_seed_field(self):
        doc = sample_theorem1(8, 10, rng_seed=3).to_json_dict()
        assert doc["seed"] == 3
