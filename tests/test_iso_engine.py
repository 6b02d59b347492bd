import json
from collections import Counter

import numpy as np
import pytest

import recon_census.hypomorphism_verifier as hv
import recon_census.iso_engine as ie
import recon_census.weight_matrix as wm
from recon_census.deletion_maps import build_all_maps
from recon_census.digraph_builder import Digraph, standard_pair, variant_pair
from recon_census.errors import BudgetExhausted, ContradictionError
from recon_census.iso_engine import (
    IsoStatus,
    REASON_BASE_CASE,
    REASON_SCORE_SPLIT,
    are_isomorphic,
    deck,
    decks_match_independent,
    verify_hypomorphic_by_sigma,
    verify_nonisomorphic_inductive,
)

from conftest import patch_case_table, swap_images_at_random, swap_two_images
from loop_oracles import (
    deletion_sweep_reference,
    every_relabeling_code,
    hypomorphisms_reference,
    induced_halves_mismatch_reference,
    relabel,
)


def random_digraph(rng: np.random.Generator, p: int, density: float = 0.5) -> Digraph:
    a = (rng.random((p, p)) < density).astype(np.uint8)
    np.fill_diagonal(a, 0)
    return Digraph(p, a)


def transitive_tournament(p: int) -> Digraph:
    return Digraph(p, np.triu(np.ones((p, p), dtype=np.uint8), 1))


class TestAreIsomorphic:
    def test_order_4_pair_differs(self):
        g, h = standard_pair(4)
        assert are_isomorphic(g, h).status is IsoStatus.NON_ISOMORPHIC

    def test_identity_witness(self):
        g, _ = standard_pair(8)
        verdict = are_isomorphic(g, g)
        assert verdict.isomorphic
        assert verdict.witness == tuple(range(1, 9))

    def test_order_8_pair_differs(self):
        g, h = standard_pair(8)
        assert are_isomorphic(g, h).status is IsoStatus.NON_ISOMORPHIC

    def test_order_mismatch(self):
        g, _ = standard_pair(4)
        h, _ = standard_pair(8)
        with pytest.raises(ValueError):
            are_isomorphic(g, h)

    def test_budget_exhaustion_is_undecided(self):
        a = np.ones((8, 8), dtype=np.uint8)
        np.fill_diagonal(a, 0)
        complete = Digraph(8, a)
        verdict = are_isomorphic(complete, complete, budget=3)
        assert verdict.status is IsoStatus.UNDECIDED
        assert verdict.budget == 3

    def test_witnesses_verify_on_relabeled_digraphs(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = int(rng.integers(3, 8))
            g = random_digraph(rng, p)
            perm = rng.permutation(p) + 1
            h = relabel(g, perm)
            verdict = are_isomorphic(h, g)
            assert verdict.isomorphic
            w = verdict.witness
            for i in range(1, p + 1):
                for j in range(1, p + 1):
                    if i != j:
                        assert h.arc(i, j) == g.arc(w[i - 1], w[j - 1])

    def test_pruning_never_changes_verdicts(self):
        # seeded suite of 100 small pairs, half relabelings, half random;
        # the degree-pruned search against every relabeling of both
        rng = np.random.default_rng(2024)
        for t in range(100):
            p = int(rng.integers(4, 8))
            g = random_digraph(rng, p)
            if t % 2 == 0:
                h = relabel(g, rng.permutation(p) + 1)
            else:
                h = random_digraph(rng, p)
            want = every_relabeling_code(g) == every_relabeling_code(h)
            verdict = are_isomorphic(g, h)
            assert verdict.status is not IsoStatus.UNDECIDED, (t, p)
            assert verdict.isomorphic == want, (t, p)

    def test_every_relabeling_code_is_an_invariant(self):
        rng = np.random.default_rng(11)
        for p in range(1, 8):
            g = random_digraph(rng, p)
            code = every_relabeling_code(g)
            assert code == every_relabeling_code(relabel(g, rng.permutation(p) + 1))
            assert code <= int("".join(map(str, g.adjacency.ravel()[::-1])), 2)


class TestDeck:
    def test_first_card_of_order_4_is_a_cycle(self):
        g, _ = standard_pair(4)
        card = deck(g)[0]
        assert np.array_equal(
            card.adjacency,
            np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=np.uint8),
        )

    def test_starred_first_card_is_a_cycle(self):
        _, h = standard_pair(4)
        card = deck(h)[0]
        power = np.linalg.matrix_power(card.adjacency.astype(int), 3)
        assert np.trace(power) == 3  # one directed 3-cycle through every point

    def test_card_counts_and_orders(self):
        g, _ = standard_pair(8)
        d = deck(g)
        assert len(d) == 8
        assert all(card.order == 7 for card in d)


class TestHypomorphicBySigma:
    @pytest.mark.parametrize("p", [8, 16])
    def test_standard_pair(self, p):
        g, h = standard_pair(p)
        report = verify_hypomorphic_by_sigma(g, h)
        assert report.passed
        assert report.checked_count == p * (p - 1) ** 2

    @pytest.mark.parametrize("p", [8, 16])
    def test_variant_pair(self, p):
        g, h = variant_pair(p)
        assert verify_hypomorphic_by_sigma(g, h).passed

    def test_self_hypomorphic_under_identity_maps(self, monkeypatch):
        g, _ = standard_pair(8)
        tables = np.tile(np.arange(1, 9, dtype=np.int32), (8, 1))
        np.fill_diagonal(tables, 0)
        monkeypatch.setattr(ie, "build_all_maps", lambda q: tables)
        assert verify_hypomorphic_by_sigma(g, g).passed

    def test_orders_differ(self):
        g, _ = standard_pair(8)
        h, _ = standard_pair(16)
        with pytest.raises(ValueError, match="orders differ"):
            verify_hypomorphic_by_sigma(g, h)

    def test_detects_mismatch(self):
        g, _ = standard_pair(8)
        report = verify_hypomorphic_by_sigma(g, transitive_tournament(8))
        assert not report.passed
        k, i, j, lhs, rhs = report.counterexample
        assert 1 <= k <= 8 and lhs != rhs


class TestHypomorphicBySigmaSweep:
    """The shared sweep and its block-copy reference give the same report."""

    @staticmethod
    def both_reports(g, h, maps, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(ie, "build_all_maps", lambda q: maps)
            report = verify_hypomorphic_by_sigma(g, h)
            m.setattr(ie, "_deletion_sweep", deletion_sweep_reference)
            assert verify_hypomorphic_by_sigma(g, h) == report
        return report

    @pytest.mark.parametrize("p", [16, 64, 128])
    @pytest.mark.parametrize("late", ["last", "first-upper"])
    def test_swapped_images_in_one_late_map(self, p, late, monkeypatch):
        k = p if late == "last" else p // 2 + 1
        maps = build_all_maps(p).copy()
        maps[k - 1] = swap_two_images(maps[k - 1], k)
        for g, h in (standard_pair(p), variant_pair(p)):
            report = self.both_reports(g, h, maps, monkeypatch)
            assert not report.passed
            assert report.counterexample[0] == k
            assert report.checked_count == p * (p - 1) ** 2

    @pytest.mark.parametrize("p", [8, 32, 128])
    def test_arc_flips_at_point_1_are_seen_from_k_2(self, p, monkeypatch):
        g, h = standard_pair(p)
        adj = h.adjacency.copy()
        for c in (1, p // 2, p - 1):
            # reverse the arc between points 1 and c + 1: still a tournament
            adj[0, c], adj[c, 0] = adj[c, 0], adj[0, c]
        flipped = Digraph(p, adj)
        assert flipped.is_tournament()
        report = self.both_reports(g, flipped, build_all_maps(p), monkeypatch)
        # the deletion of point 1 never reads point 1 of h
        assert not report.passed
        assert report.counterexample[0] >= 2


class TestPairsBySigma:
    """The pair reports of the dense route (``hypomorphisms_reference``),
    each one sweep of the level matrices read through the pair's bit
    table, are those of the per-pair digraph sweeps."""

    @staticmethod
    def per_pair(p):
        pairs = {"hypo-sigma-tournament": standard_pair(p)}
        if p >= 8:
            pairs["hypo-sigma-variant"] = variant_pair(p)
        return [
            verify_hypomorphic_by_sigma(*pair)._replace(check_name=name)
            for name, pair in pairs.items()
        ]

    @pytest.mark.parametrize("p", [4, 8, 16, 64])
    def test_clean_order(self, p):
        reports = hypomorphisms_reference(p)[1:]
        assert reports == self.per_pair(p)
        assert all(r.passed and r.checked_count == p * (p - 1) ** 2 for r in reports)

    @pytest.mark.parametrize("p", [8, 16, 32, 64, 128])
    def test_seeded_map_faults(self, p, monkeypatch):
        rng = np.random.default_rng(p)
        for _ in range(3):
            maps = swap_images_at_random(build_all_maps(p), rng)
            for module in (hv, ie):
                monkeypatch.setattr(module, "build_all_maps", lambda q: maps)
            reports = hypomorphisms_reference(p)[1:]
            assert reports == self.per_pair(p)
            assert not any(r.passed for r in reports)


class TestDeckMatching:
    def test_order_4_pair_matches(self):
        g, h = standard_pair(4)
        assert decks_match_independent(g, h) is not None

    def test_order_8_pair_matches_and_identity_works(self):
        g, h = standard_pair(8)
        assert decks_match_independent(g, h) is not None
        for card_g, card_h in zip(deck(g), deck(h)):
            assert are_isomorphic(card_g, card_h).isomorphic

    def test_transitive_tournament_deck_differs(self):
        g, _ = standard_pair(4)
        tt = transitive_tournament(4)
        assert decks_match_independent(g, tt) is None
        # independent confirmation: g's deck contains a card with a
        # directed 3-cycle, while every card of the transitive
        # tournament is acyclic
        def has_cycle(card):
            power = np.linalg.matrix_power(card.adjacency.astype(int), 3)
            return np.trace(power) > 0

        assert any(has_cycle(c) for c in deck(g))
        assert not any(has_cycle(c) for c in deck(tt))

    def test_order_bound(self):
        g, h = standard_pair(16)
        with pytest.raises(ValueError):
            decks_match_independent(g, h)

    def test_budget_exhaustion_raises(self):
        g, h = standard_pair(8)
        with pytest.raises(BudgetExhausted):
            decks_match_independent(g, h, budget=1)

    @staticmethod
    def check_matching(g, h):
        """The matching against the decks' isomorphism-class counts."""
        codes_g = [every_relabeling_code(c) for c in deck(g)]
        codes_h = [every_relabeling_code(c) for c in deck(h)]
        matching = decks_match_independent(g, h)
        assert (matching is None) == (Counter(codes_g) != Counter(codes_h))
        if matching is not None:
            assert sorted(matching) == list(range(1, g.order + 1))
            for k, m in enumerate(matching):
                assert codes_g[k] == codes_h[m - 1], (k + 1, m)
        return matching

    @pytest.mark.parametrize(
        "pair, p", [(standard_pair, 4), (standard_pair, 8), (variant_pair, 8)]
    )
    def test_canonical_pairs_match_card_for_card(self, pair, p):
        assert self.check_matching(*pair(p)) is not None

    def test_random_pairs(self):
        # 50 seeded pairs at p = 5..7, half of them relabelings
        rng = np.random.default_rng(31)
        found = []
        for t in range(50):
            p = int(rng.integers(5, 8))
            g = random_digraph(rng, p)
            if t % 2 == 0:
                h = relabel(g, rng.permutation(p) + 1)
            else:
                h = random_digraph(rng, p)
            found.append(self.check_matching(g, h) is not None)
        assert found[::2] == [True] * 25 and not all(found)


def _induced_halves_message(p):
    """The induced-half comparison of one theorem 2 level, plain then
    starred, on the order-p signs of ``_offset_case_table``: the message of
    the first failure, or None."""
    try:
        for variant in wm.MatrixVariant:
            ie._induced_half(p, variant, ie._offset_case_table(p, variant) > 0)
    except ContradictionError as exc:
        return str(exc)
    return None


class TestInductiveNonIsomorphism:
    def test_base_case_trace(self):
        trace = verify_nonisomorphic_inductive(4)
        assert len(trace.steps) == 1
        assert trace.steps[0].order == 4
        assert trace.steps[0].reason == REASON_BASE_CASE
        assert "24 point bijections" in trace.steps[0].detail

    def test_three_step_trace(self):
        trace = verify_nonisomorphic_inductive(16)
        assert [s.order for s in trace.steps] == [16, 8, 4]
        assert trace.steps[0].reason == REASON_SCORE_SPLIT

    def test_nine_step_trace(self):
        trace = verify_nonisomorphic_inductive(1024)
        assert len(trace.steps) == 9

    def test_agrees_with_search_oracle(self):
        for p in (4, 8):
            g, h = standard_pair(p)
            assert are_isomorphic(g, h).status is IsoStatus.NON_ISOMORPHIC
            verify_nonisomorphic_inductive(p)

    @pytest.mark.parametrize("p", [8, 16, 32])
    def test_induced_halves_equal_smaller_pair(self, p):
        h = p // 2
        g_big, s_big = standard_pair(p)
        g_small, s_small = standard_pair(h)
        assert np.array_equal(g_big.adjacency[:h, :h], g_small.adjacency)
        assert np.array_equal(s_big.adjacency[h:, h:], s_small.adjacency)

    @pytest.mark.parametrize("p", [16, 1024])
    def test_one_table_build_per_variant_and_order(self, p, monkeypatch):
        real = ie._offset_case_table
        calls = Counter()

        def counted(q, variant):
            calls[q, variant] += 1
            return real(q, variant)

        monkeypatch.setattr(ie, "_offset_case_table", counted)
        verify_nonisomorphic_inductive(p)
        orders = [p >> k for k in range(wm.order_exponent(p) - 1)]
        assert orders[-1] == 4
        assert calls == Counter({(q, v): 1 for q in orders for v in wm.MatrixVariant})

    @pytest.mark.parametrize("p", [2**n for n in range(3, 11)])
    def test_induced_halves_class_form_matches_grid_form(self, p, monkeypatch):
        assert _induced_halves_message(p) is None
        assert induced_halves_mismatch_reference(p) is None
        real = wm._offset_case_table
        nb, nh = p // 4, p // 8
        # negate one entry at an offset inside, then just outside, the half range
        for variant in wm.MatrixVariant:
            for d in sorted({0, nh - 1, -(nh - 1), nh, -nh}):

                def patched(q, v, d=d, variant=variant):
                    table = real(q, v)
                    if q == p and v is variant:
                        table = table.copy()
                        table[d + nb - 1, 0, 1] *= -1
                    return table

                patch_case_table(monkeypatch, patched, (wm, ie))
                got = _induced_halves_message(p)
                assert got == induced_halves_mismatch_reference(p)
                assert (got is None) == (abs(d) >= nh), (p, variant, d)

    def test_json_serialization(self):
        trace = verify_nonisomorphic_inductive(16)
        doc = trace.to_json()
        assert [row["p"] for row in doc] == [16, 8, 4]
        assert all(set(row) == {"p", "reason", "detail"} for row in doc)
        json.dumps(doc)
