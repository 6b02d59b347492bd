import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recon_census.deletion_maps import extend_sigma_p1
from recon_census.digraph_builder import (
    BinaryAssignment,
    Digraph,
    _bit_lut,
    _is_arc_preserving,
    _tournament_rows,
    _twin_levels,
    apply_assignment,
    assignment_census,
    assignment_from_bits,
    assignment_from_mapping,
    forced_isomorphism,
    standard_pair,
    swap_involution,
    threshold_scores,
    tournament_assignment,
    tournament_digraph,
    variant_assignment,
    variant_digraph,
    variant_pair,
)
from recon_census.errors import ContradictionError
import recon_census.weight_matrix as wm
from recon_census.weight_matrix import MatrixVariant, build_dense, entry_grid

from conftest import FIXTURES
from loop_oracles import (
    assigned_pair,
    assignment_census_reference,
    relabel,
    threshold_scores_reference,
)

PLAIN = MatrixVariant.PLAIN
STAR = MatrixVariant.STAR


def every_assignment(p):
    n = p.bit_length() - 1
    m = 2 * (n + 1)
    return [assignment_from_bits(n, format(x, f"0{m}b")) for x in range(1 << m)]


def random_assignments(p, count, seed):
    n = p.bit_length() - 1
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(count, 2 * (n + 1)))
    return [BinaryAssignment(n, tuple(int(b) for b in row)) for row in bits]


def reference_digraph6(g: Digraph) -> str:
    """Independent string-based packer for small orders."""
    assert g.order <= 62
    bits = "".join(
        str(int(g.adjacency[i, j])) for i in range(g.order) for j in range(g.order)
    )
    bits += "0" * (-len(bits) % 6)
    body = "".join(
        chr(int(bits[s : s + 6], 2) + 63) for s in range(0, len(bits), 6)
    )
    return "&" + chr(g.order + 63) + body


class TestAssignments:
    def test_bit_layout(self):
        a = tournament_assignment(3)
        assert a.bit_string == "11110000"
        assert a.value_for(4) == 1 and a.value_for(-4) == 0

    def test_variant_rule(self):
        a = variant_assignment(3)
        assert a.value_for(1) == 1 and a.value_for(-1) == 1
        assert a.value_for(2) == 0 and a.value_for(-2) == 0
        assert a.value_for(3) == 1 and a.value_for(-3) == 0
        assert a.value_for(4) == 1 and a.value_for(-4) == 0
        assert a.bit_string == "10111000"

    def test_round_trip_bits(self):
        a = assignment_from_bits(3, "01100101")
        assert a.bit_string == "01100101"
        assert a == BinaryAssignment(3, (0, 1, 1, 0, 0, 1, 0, 1))

    def test_mapping_must_be_total(self):
        with pytest.raises(ValueError, match="missing"):
            assignment_from_mapping(3, {1: 1, -1: 0})

    def test_level_domain(self):
        a = tournament_assignment(3)
        with pytest.raises(ValueError):
            a.value_for(5)
        with pytest.raises(ValueError):
            a.value_for(0)

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError):
            BinaryAssignment(3, (1, 0, 1))
        with pytest.raises(ValueError):
            assignment_from_bits(3, "0110210x")


class TestApplyAssignment:
    def test_threshold_rows_at_order_4(self):
        a = tournament_assignment(2)
        g = apply_assignment(build_dense(4, PLAIN), a)
        assert list(g.adjacency[0]) == [0, 1, 1, 1]
        h = apply_assignment(build_dense(4, STAR), a)
        assert list(h.adjacency[0]) == [0, 0, 0, 0]

    def test_all_ones_gives_complete_digraph(self):
        g = apply_assignment(build_dense(8, PLAIN), assignment_from_bits(3, "1" * 8))
        expected = np.ones((8, 8), dtype=np.uint8)
        np.fill_diagonal(expected, 0)
        assert np.array_equal(g.adjacency, expected)

    def test_exponent_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_assignment(build_dense(8, PLAIN), tournament_assignment(2))


class TestStandardPair:
    def test_score_vectors_order_4(self):
        g, h = standard_pair(4)
        assert g.scores() == (3, 1, 1, 1)
        assert h.scores() == (0, 2, 2, 2)

    def test_score_split_order_8(self):
        g, h = standard_pair(8)
        assert g.scores() == (4, 4, 4, 4, 3, 3, 3, 3)
        assert h.scores() == (3, 3, 3, 3, 4, 4, 4, 4)

    @pytest.mark.parametrize("p", [4, 8, 16, 32, 64])
    def test_tournament_property(self, p):
        for g in standard_pair(p):
            a = g.adjacency.astype(int)
            off = ~np.eye(p, dtype=bool)
            assert np.all((a + a.T)[off] == 1)
            assert np.all(np.diagonal(a) == 0)

    def test_scores_function(self):
        g, _ = standard_pair(16)
        v = g.scores()
        assert v[0] == 8
        assert sum(v) == g.arc_count() == 16 * 15 // 2

    def test_arcless_scores(self):
        empty = Digraph(4, np.zeros((4, 4), dtype=np.uint8))
        assert empty.scores() == (0, 0, 0, 0)

    @pytest.mark.parametrize("p", [8, 16, 64, 256])
    def test_threshold_scores_closed_form(self, p):
        h = p // 2
        for variant, first in ((PLAIN, h), (STAR, h - 1)):
            got = threshold_scores(p, variant)
            assert list(got[:h]) == [first] * h
            assert list(got[h:]) == [p - 1 - first] * h

    @pytest.mark.parametrize("p", [2**n for n in range(2, 13)])
    def test_threshold_scores_match_reference(self, p):
        for variant in (PLAIN, STAR):
            got = threshold_scores(p, variant)
            want = threshold_scores_reference(p, variant)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (p, variant)

    @pytest.mark.parametrize("p", [8, 32])
    def test_threshold_scores_match_built_digraph(self, p):
        g, h = standard_pair(p)
        assert tuple(threshold_scores(p, PLAIN)) == g.scores()
        assert tuple(threshold_scores(p, STAR)) == h.scores()

    def test_each_digraph_built_alone_is_checked(self, monkeypatch):
        import recon_census.digraph_builder as db
        from recon_census.cli import main

        # every level to 1: both arcs between any two points
        def all_ones(n):
            return assignment_from_bits(n, "1" * (2 * n + 2))

        monkeypatch.setattr(db, "tournament_assignment", all_ones)
        for variant in (PLAIN, STAR):
            with pytest.raises(ContradictionError, match="tournament check"):
                tournament_digraph(8, variant)
        args = ["generate", "--p", "8", "--kind", "tournament", "--variant", "star"]
        assert main(args) == 3


class TestVariantPair:
    def test_symmetric_pair_at_level_one(self):
        g, _ = variant_pair(8)
        assert g.arc(1, 2) and g.arc(2, 1)

    def test_nonadjacent_pair_at_level_two(self):
        g, _ = variant_pair(8)
        assert not g.arc(1, 3) and not g.arc(3, 1)

    def test_single_arc_at_extreme_level(self):
        g, _ = variant_pair(8)
        assert g.arc(1, 5) and not g.arc(5, 1)

    def test_not_tournaments(self):
        g, h = variant_pair(8)
        assert not g.is_tournament() and not h.is_tournament()

    def test_requires_order_8(self):
        with pytest.raises(ValueError):
            variant_pair(4)
        with pytest.raises(ValueError, match="require p >= 8"):
            variant_digraph(4, STAR)


class TestForcedIsomorphism:
    def test_equal_extremes_yields_verified_witness(self):
        mapping = {v: (1 if v > 0 else 0) for v in range(-4, 5) if v}
        mapping[-4] = 1
        ext = forced_isomorphism(8, assignment_from_mapping(3, mapping))
        assert ext is not None
        assert ext[0] == 1 and ext[1] == 8

    def test_distinct_extremes_yields_none(self):
        assert forced_isomorphism(8, tournament_assignment(3)) is None

    def test_all_zero_assignment_still_verifies(self):
        ext = forced_isomorphism(8, assignment_from_bits(3, "0" * 8))
        assert ext is not None

    @pytest.mark.parametrize("p", [8, 16, 32])
    def test_witness_maps_arcs_everywhere(self, p):
        n = p.bit_length() - 1
        mapping = {v: (1 if v > 0 else 0) for v in range(-(n + 1), n + 2) if v}
        mapping[-(n + 1)] = 1
        a = assignment_from_mapping(n, mapping)
        ext = forced_isomorphism(p, a)
        g = apply_assignment(build_dense(p, PLAIN), a)
        h = apply_assignment(build_dense(p, STAR), a)
        assert np.array_equal(g.adjacency, h.adjacency[np.ix_(ext - 1, ext - 1)])

    @pytest.mark.parametrize(
        "p, assignments",
        [
            (8, every_assignment(8)),
            (16, every_assignment(16)),
            (32, random_assignments(32, 200, seed=1)),
            (64, random_assignments(64, 200, seed=2)),
        ],
        ids=["8-all", "16-all", "32-random", "64-random"],
    )
    def test_level_pairs_match_arc_by_arc_check(self, p, assignments):
        ext = extend_sigma_p1(p)
        n = p.bit_length() - 1
        forced = 0
        for a in assignments:
            carried = _is_arc_preserving(*assigned_pair(p, a), ext)
            equal_extremes = a.value_for(n + 1) == a.value_for(-(n + 1))
            assert carried == equal_extremes, a.bit_string
            witness = forced_isomorphism(p, a)
            assert (witness is not None) == equal_extremes
            if witness is not None:
                assert np.array_equal(witness, ext)
                forced += 1
        assert 0 < forced < len(assignments)

    def test_witness_is_read_only(self):
        ext = forced_isomorphism(8, assignment_from_bits(3, "1" * 8))
        with pytest.raises(ValueError):
            ext[0] = 2

    @pytest.mark.parametrize("p", [8, 16])
    def test_tournament_flag_from_levels(self, p):
        twins = _twin_levels(p)
        flags = set()
        for a in every_assignment(p):
            g, h = assigned_pair(p, a)
            flag = g.is_tournament() and h.is_tournament()
            assert _tournament_rows(twins, _bit_lut(a)) == flag, a.bit_string
            flags.add(flag)
        assert flags == {False, True}


def dense_tournaments(p, a):
    """Whether assignment ``a`` makes tournaments of both level grids, read
    unvalidated from the class table (``entry_grid``): a zero diagonal, and
    a tournament of the assigned bits (``Digraph.is_tournament``)."""
    lut = _bit_lut(a)
    for variant in (PLAIN, STAR):
        levels = entry_grid(p, variant)
        if np.diagonal(levels).any() or not Digraph(p, lut[levels]).is_tournament():
            return False
    return True


class TestTwinLevels:
    """The class-table tournament rule against the dense tournament test."""

    @pytest.mark.parametrize("p", [4, 8, 16, 32, 64])
    def test_equals_dense_test_under_every_one_cell_class_fault(self, tables, p):
        n = p.bit_length() - 1
        named = [tournament_assignment(n)] + [variant_assignment(n)] * (p >= 8)
        assignments = named + random_assignments(p, 6, seed=p)
        flags = set()
        faults = [None] + [
            (variant, int(row), r, c)
            for variant in (PLAIN, STAR)
            for row in wm._reached_rows(p)
            for r in range(4)
            for c in range(4)
        ]
        assert len(faults) == 1 + 2 * (2 * n - 3) * 16
        for fault in faults:
            if fault is not None:
                tables.class_cell(*fault)
            twins = _twin_levels(p)
            for a in assignments:
                flag = dense_tournaments(p, a)
                assert _tournament_rows(twins, _bit_lut(a)) == flag, (fault, a.bit_string)
                flags.add((fault is None, a in named, flag))
        # the tournament assignment yields tournaments on the clean tables,
        # and each fault (a negated cell, whose twin keeps its level) breaks it
        assert (True, True, True) in flags and (False, True, True) not in flags

    @pytest.mark.parametrize("p", [4, 8])
    @pytest.mark.parametrize("variant", [PLAIN, STAR])
    def test_zero_row_diagonal_fault_fails_every_assignment(self, tables, p, variant):
        # a nonzero level on the diagonal is a loop whatever its bit: it
        # pairs with itself, so even an assignment giving it 0 fails
        tables.class_cell(variant, int(wm._reached_rows(p)[0]), 2, 2, -1)
        twins = _twin_levels(p)
        for a in every_assignment(p):
            assert not _tournament_rows(twins, _bit_lut(a)), a.bit_string
            assert not dense_tournaments(p, a)

    def test_twins_are_negations_on_clean_tables(self):
        for p in (4, 8, 1 << 24):
            u, v = _twin_levels(p)
            assert u.dtype == np.int8 and np.array_equal(u, -v)
            # 2n - 3 rows of 16 cells in each variant, less the 4 diagonal cells
            n = p.bit_length() - 1
            assert u.size == 2 * ((2 * n - 3) * 16 - 4)


class TestSwapInvolution:
    def test_permutation_shape(self):
        tau = swap_involution(8)
        assert list(tau) == [5, 6, 7, 8, 1, 2, 3, 4]

    def test_involution(self):
        tau = swap_involution(16)
        assert all(tau[tau[i] - 1] == i + 1 for i in range(16))

    def test_extreme_levels_swap_under_conjugation(self):
        m = build_dense(8, PLAIN)
        tau = swap_involution(8)
        assert m.entry(int(tau[0]), int(tau[4])) == -4
        assert m.entry(1, 5) == 4
        assert m.entry(int(tau[0]), int(tau[1])) == m.entry(1, 2) == 1

    @pytest.mark.parametrize("p", [8, 16, 64, 256])
    def test_verifies_at_order(self, p):
        assert swap_involution(p) is not None

    def test_requires_order_8(self):
        with pytest.raises(ValueError):
            swap_involution(4)


@pytest.fixture(scope="module")
def table8():
    return assignment_census(8)


class TestCensus:
    def test_row_count(self, table8):
        assert len(table8.rows) == 256

    def test_canonical_rows_non_isomorphic(self, table8):
        tournament = table8.rows[int(tournament_assignment(3).bit_string, 2)]
        variant = table8.rows[int(variant_assignment(3).bit_string, 2)]
        assert tournament.isomorphic is False and tournament.is_tournament
        assert variant.isomorphic is False and not variant.is_tournament

    def test_equal_extremes_always_isomorphic(self, table8):
        for row in table8.rows:
            a = assignment_from_bits(3, row.assignment_bits)
            if a.value_for(4) == a.value_for(-4):
                assert row.isomorphic is True, row

    def test_tournament_flag_matches_complement_structure(self, table8):
        for row in table8.rows:
            a = assignment_from_bits(3, row.assignment_bits)
            expect = all(a.value_for(v) != a.value_for(-v) for v in range(1, 5))
            assert row.is_tournament == expect, row

    def test_orbit_partner_yields_relabeled_pair(self, table8):
        tau = swap_involution(8)
        mp = build_dense(8, PLAIN)
        ms = build_dense(8, STAR)
        by_orbit = {}
        for row in table8.rows:
            by_orbit.setdefault(row.orbit_id, []).append(row.assignment_bits)
        for members in by_orbit.values():
            assert len(members) in (1, 2)
            if len(members) != 2:
                continue
            a, b = (assignment_from_bits(3, bits) for bits in members)
            for m in (mp, ms):
                left = apply_assignment(m, a)
                right = apply_assignment(m, b)
                assert right == relabel(left, tau)

    def test_order4_witness_is_the_first_carrying_bijection(self):
        import itertools

        import recon_census.digraph_builder as db

        isomorphic, witness = db._census_verdicts(4)
        assert len(isomorphic) == 64
        for x, a in enumerate(every_assignment(4)):
            g, h = assigned_pair(4, a)
            first = next(
                (perm for perm in itertools.permutations(range(4))
                 if _is_arc_preserving(g, h, np.add(perm, 1))),
                None,
            )
            assert isomorphic[x] == (first is not None), a.bit_string
            if first is not None:
                assert tuple(witness[x]) == first, a.bit_string

    @pytest.mark.parametrize("p", [8, 16])
    def test_every_witness_carries_its_row(self, p):
        # forced rows by the point-1 mapping, the others by a lift that
        # crosses the halves
        import recon_census.digraph_builder as db

        isomorphic, witness = db._census_verdicts(p)
        ext = extend_sigma_p1(p) - 1
        h = p // 2
        for x, a in enumerate(every_assignment(p)):
            if not isomorphic[x]:
                continue
            assert _is_arc_preserving(*assigned_pair(p, a), witness[x] + 1), a.bit_string
            if forced_isomorphism(p, a) is not None:
                assert np.array_equal(witness[x], ext)
            else:
                assert np.all(witness[x][:h] >= h) and np.all(witness[x][h:] < h)

    def test_split_reads_the_in_degree(self):
        # the halves of this digraph share their out-degree 1 and differ in
        # their in-degrees (2 against 0); its half swap is its partner
        import recon_census.digraph_builder as db

        g = np.zeros((4, 4), dtype=np.uint8)
        g[[0, 1, 2, 3], [1, 0, 0, 1]] = 1
        swapped = g[[2, 3, 0, 1]][:, [2, 3, 0, 1]]
        assert db._splits(g[None], swapped[None]).tolist() == [True]
        # unswapped, the plain first half meets the starred first half
        assert db._splits(g[None], g[None]).tolist() == [False]

    @pytest.mark.parametrize("p", [8, 16])
    def test_quadrant_check_reads_the_offset_tables(self, monkeypatch, p):
        # an antisymmetric edit of the central offset row of order p breaks
        # lemma 1(a): the diagonal quadrants are no longer the half order's
        import recon_census.digraph_builder as db
        from conftest import patch_case_table

        real = wm._offset_case_table

        def patched(q, variant):
            table = real(q, variant)
            if (q, variant) == (p, PLAIN):
                table = table.copy()
                centre = q // 4 - 1
                table[centre, [0, 1], [1, 0]] *= -1
            return table

        patch_case_table(monkeypatch, patched, (wm, db))
        with pytest.raises(
            ContradictionError, match=f"^diagonal quadrants at p={p} \\(plain\\) differ from p={p // 2}$"
        ):
            assignment_census(p)

    @pytest.mark.parametrize("p", [8, 16])
    def test_matches_every_row_search(self, p):
        assert assignment_census(p) == assignment_census_reference(p)

    @pytest.mark.parametrize("p", [8, 16])
    def test_matches_golden_fixture(self, p):
        golden = (FIXTURES / f"census_p{p}.csv").read_text()
        assert assignment_census(p).to_csv() == golden
        assert assignment_census_reference(p).to_csv() == golden

    def test_rejects_other_orders(self):
        with pytest.raises(ValueError):
            assignment_census(32)

    def test_csv_shape(self, table8):
        lines = table8.to_csv().splitlines()
        assert lines[0] == "assignment_bits,is_tournament,isomorphic,orbit_id"
        assert len(lines) == 257
        assert lines[1].startswith("00000000,")

    def test_every_assignment_transfers_hypomorphism(self, table8):
        # the deletion mappings carry card k onto card k for the digraphs
        # of every proper assignment, not just the canonical ones
        from recon_census.iso_engine import verify_hypomorphic_by_sigma

        mp = build_dense(8, PLAIN)
        ms = build_dense(8, STAR)
        for row in table8.rows:
            a = assignment_from_bits(3, row.assignment_bits)
            g = apply_assignment(mp, a)
            h = apply_assignment(ms, a)
            assert verify_hypomorphic_by_sigma(g, h).passed, row

    def test_high_levels_can_be_fixed_without_loss(self):
        # every non-isomorphic pair at order 16 is isomorphic, side by
        # side, to the pair from the assignment with levels >= 4 sent to
        # 1 and levels <= -4 sent to 0
        from recon_census.iso_engine import are_isomorphic

        table = assignment_census(16)
        mp = build_dense(16, PLAIN)
        ms = build_dense(16, STAR)
        noniso = [r for r in table.rows if r.isomorphic is False]
        assert noniso
        for row in noniso:
            a = assignment_from_bits(4, row.assignment_bits)
            mapping = dict(a.items())
            for v in (4, 5):
                mapping[v] = 1
                mapping[-v] = 0
            b = assignment_from_mapping(4, mapping)
            assert table.rows[int(b.bit_string, 2)].isomorphic is False
            for m in (mp, ms):
                verdict = are_isomorphic(
                    apply_assignment(m, a), apply_assignment(m, b), budget=500_000
                )
                assert verdict.isomorphic, (row.assignment_bits, m.variant)


class TestDigraphExports:
    def test_digraph6_against_reference(self):
        g, h = standard_pair(4)
        assert g.to_digraph6() == reference_digraph6(g)
        assert h.to_digraph6() == reference_digraph6(h)
        d, ds = variant_pair(8)
        assert d.to_digraph6() == reference_digraph6(d)
        assert ds.to_digraph6() == reference_digraph6(ds)

    def test_digraph6_known_value(self):
        g, _ = standard_pair(4)
        assert g.to_digraph6() == "&C[`O"

    def test_digraph6_round_trip(self):
        for g in (*standard_pair(8), *variant_pair(16)):
            assert Digraph.from_digraph6(g.to_digraph6()) == g

    def test_digraph6_long_count_round_trip(self):
        g = Digraph(63, np.zeros((63, 63), dtype=np.uint8))
        text = g.to_digraph6()
        assert text.startswith("&~??~")
        assert Digraph.from_digraph6(text) == g

    def test_dot_arc_lines(self):
        g, _ = standard_pair(4)
        dot = g.to_dot("G4")
        assert dot.startswith("digraph G4 {")
        assert "  1 -> 2;" in dot and "  4 -> 2;" in dot
        assert "  2 -> 1;" not in dot

    def test_csv_zero_one(self):
        g, _ = standard_pair(4)
        assert g.to_csv() == "0,1,1,1\n0,0,1,0\n0,0,0,1\n0,1,0,0\n"

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_digraph6_round_trip_random(self, data):
        p = data.draw(st.integers(1, 12))
        bits = data.draw(
            st.lists(st.booleans(), min_size=p * p, max_size=p * p)
        )
        a = np.array(bits, dtype=np.uint8).reshape(p, p)
        np.fill_diagonal(a, 0)
        g = Digraph(p, a)
        encoded = g.to_digraph6()
        assert encoded == reference_digraph6(g)
        assert Digraph.from_digraph6(encoded) == g

    def test_from_digraph6_rejects_bad_input(self):
        with pytest.raises(ValueError, match="must start"):
            Digraph.from_digraph6("C[`O")
        with pytest.raises(ValueError, match="payload"):
            Digraph.from_digraph6("&C[`")
        with pytest.raises(ValueError, match="payload"):
            Digraph.from_digraph6("&C[`OO")

    @pytest.mark.parametrize(
        "text",
        [
            "&",  # no size character
            "&~",  # 4-character size, truncated
            "&~?",
            "&~??",
            "&~~??",  # 8-character size, truncated
            "&~~?????",
            "&>",  # size characters outside '?'..'~'
            "&\x7f",
            "&~?>?",
            "&~~?????\x80",
        ],
    )
    def test_from_digraph6_rejects_malformed_header(self, text):
        with pytest.raises(ValueError, match="header is truncated|size character"):
            Digraph.from_digraph6(text)


class TestDigraphType:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Digraph(3, np.eye(3, dtype=np.uint8))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            Digraph(2, np.full((2, 2), 2, dtype=np.uint8))

    def test_delete_point_relabels_in_order(self):
        g, _ = standard_pair(4)
        card = g.delete_point(1)
        assert card.order == 3
        assert np.array_equal(
            card.adjacency,
            np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=np.uint8),
        )

    def test_adjacency_read_only(self):
        g, _ = standard_pair(4)
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 0

    def test_bitrows(self):
        g, _ = standard_pair(4)
        assert g.bitrows == (0b1110, 0b0100, 0b1000, 0b0010)

    def test_bitrows_match_arc_loop(self):
        def arc_loop(g):
            rows = []
            for row in g.adjacency:
                bits = 0
                for j in np.nonzero(row)[0]:
                    bits |= 1 << int(j)
                rows.append(bits)
            return tuple(rows)

        rng = np.random.default_rng(7)
        for p in range(1, 131):
            a = (rng.random((p, p)) < rng.random()).astype(np.uint8)
            np.fill_diagonal(a, 0)
            g = Digraph(p, a)
            assert g.bitrows == arc_loop(g), p


def test_digraph_passes_hold_no_p_squared_scratch():
    """At p = 2048 the digraph is 4 MiB.  Applying an assignment allocates
    little beyond it, and the tournament scan and the digraph6 packer hold
    one row block of scratch besides the 0.7 MB of digraph6 text."""
    import tracemalloc

    p = 2048
    m = build_dense(p, STAR)
    a = tournament_assignment(p.bit_length() - 1)

    def peak(run):
        tracemalloc.start()
        try:
            result = run()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    g, applied = peak(lambda: apply_assignment(m, a))
    tournament, scanned = peak(g.is_tournament)
    text, packed = peak(g.to_digraph6)
    assert tournament and len(text) == 5 + (p * p + 5) // 6
    assert applied < p * p + (1 << 19)
    assert scanned < 1 << 20
    assert packed < 2 << 20
