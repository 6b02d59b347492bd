"""Digraph isomorphism decisions, decks, and the inductive non-isomorphism proof.

``are_isomorphic`` is a budgeted backtracking search over point bijections
used as an oracle at small orders.  ``verify_hypomorphic_by_sigma`` checks
that the deletion mappings carry the deck of one digraph onto that of
another, in one dense deletion sweep;
``theorem1_automaton.decide_hypomorphisms`` gives its report for both
digraph pairs of an order, with theorem 1's, at every order, and the
command line runs that.  ``decks_match_independent`` validates
hypomorphism without trusting the deletion mappings: it tests every pair of
cards for isomorphism and matches the decks card for card.
``verify_nonisomorphic_inductive`` runs the halving argument at any order:
the score split forces any isomorphism of the canonical pair to map the
first half onto the last half, those halves induce the canonical pair of
half order, and the order-4 base case is the census's verdict on the
tournament assignment's row, which checks all 24 point bijections.  The
chain reads the signs of one offset table per variant and order, each
level handing its half-order tables down to the next; neither they nor
the verdict outlive the call.  The test suite checks the chain against
its entry-grid form.  The search verdict and the chain's trace
(``IsoVerdict``, ``TraceStep``, ``NonIsoTrace``) are NamedTuples.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

import numpy as np

from recon_census.deletion_maps import _deletion_sweep, build_all_maps
from recon_census.digraph_builder import (
    Digraph,
    _census_verdicts,
    _is_arc_preserving,
    _sign_scores,
    tournament_assignment,
)
from recon_census.errors import BudgetExhausted, ContradictionError
from recon_census.report import VerificationReport
from recon_census.weight_matrix import (
    MatrixVariant,
    _nested_rows,
    _offset_case_table,
    order_exponent,
)

__all__ = [
    "DECK_MATCH_ORDER_LIMIT",
    "DEFAULT_ISO_BUDGET",
    "IsoStatus",
    "IsoVerdict",
    "NonIsoTrace",
    "REASON_BASE_CASE",
    "REASON_SCORE_SPLIT",
    "TraceStep",
    "are_isomorphic",
    "deck",
    "decks_match_independent",
    "verify_hypomorphic_by_sigma",
    "verify_nonisomorphic_inductive",
]

#: Node budget of one isomorphism search when the caller names none.
DEFAULT_ISO_BUDGET = 200_000
#: Largest order where deck matching's p**2 card-pair searches fit the budget.
DECK_MATCH_ORDER_LIMIT = 12

REASON_SCORE_SPLIT = "score-split forces half-to-half mapping"
REASON_BASE_CASE = "base case: exhaustive search"


class IsoStatus(enum.Enum):
    ISOMORPHIC = "isomorphic"
    NON_ISOMORPHIC = "non-isomorphic"
    UNDECIDED = "undecided"


class IsoVerdict(NamedTuple):
    """Search outcome; a witness is present exactly on the isomorphic verdict."""

    status: IsoStatus
    witness: Optional[tuple[int, ...]] = None
    nodes: int = 0
    budget: Optional[int] = None

    @property
    def isomorphic(self) -> bool:
        return self.status is IsoStatus.ISOMORPHIC


class _BudgetHit(Exception):
    pass


def are_isomorphic(
    g: Digraph, h: Digraph, budget: int = DEFAULT_ISO_BUDGET
) -> IsoVerdict:
    """Decide isomorphism by backtracking over point bijections.

    Points of ``g`` are processed in (outdegree, indegree, index) order
    and matched only against points of ``h`` in the same degree class.
    Every candidate pairing counts one node against ``budget``;
    exhausting it yields an undecided verdict.  A found witness is
    re-verified arc by arc before being returned.
    """
    if g.order != h.order:
        raise ValueError(f"orders differ: {g.order} vs {h.order}")
    p = g.order
    ga, ha = g.bitrows, h.bitrows
    g_out = [r.bit_count() for r in ga]
    h_out = [r.bit_count() for r in ha]
    g_in = [int(v) for v in g.adjacency.sum(axis=0)]
    h_in = [int(v) for v in h.adjacency.sum(axis=0)]
    g_key = list(zip(g_out, g_in))
    h_key = list(zip(h_out, h_in))

    if sorted(g_key) != sorted(h_key):
        return IsoVerdict(IsoStatus.NON_ISOMORPHIC, nodes=0)

    vertex_order = sorted(range(p), key=lambda v: (g_out[v], g_in[v], v))
    candidates = [[w for w in range(p) if h_key[w] == g_key[v]] for v in range(p)]

    mapping = [-1] * p
    used = [False] * p
    nodes = 0

    def search(t: int) -> bool:
        nonlocal nodes
        if t == p:
            return True
        v = vertex_order[t]
        row_v = ga[v]
        for w in candidates[v]:
            if used[w]:
                continue
            nodes += 1
            if nodes > budget:
                raise _BudgetHit
            row_w = ha[w]
            ok = True
            for u in vertex_order[:t]:
                x = mapping[u]
                if ((row_v >> u) & 1) != ((row_w >> x) & 1) or (
                    (ga[u] >> v) & 1
                ) != ((ha[x] >> w) & 1):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if search(t + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    try:
        found = search(0)
    except _BudgetHit:
        return IsoVerdict(IsoStatus.UNDECIDED, nodes=nodes, budget=budget)

    if not found:
        return IsoVerdict(IsoStatus.NON_ISOMORPHIC, nodes=nodes)

    witness = tuple(mapping[v] + 1 for v in range(p))
    if not _is_arc_preserving(g, h, witness):
        raise ContradictionError("search produced a witness that fails verification")
    return IsoVerdict(IsoStatus.ISOMORPHIC, witness=witness, nodes=nodes)


def deck(g: Digraph) -> tuple[Digraph, ...]:
    """All point-deleted subgraphs, each relabeled order-preservingly.

    The card deleting point k sits at index k - 1.
    """
    if g.order < 2:
        raise ValueError(f"deck requires order >= 2, got {g.order}")
    return tuple(g.delete_point(k) for k in range(1, g.order + 1))


def verify_hypomorphic_by_sigma(g: Digraph, h: Digraph) -> VerificationReport:
    """Check that each deletion mapping carries card k of g onto card k of h.

    The maps are the validated table ``build_all_maps(p)`` of the common
    order.  The relabelings cancel, so the test is: for every deleted
    point k and all points i, j other than k, g has the arc (i, j) exactly
    when h has the arc (image(i), image(j)).
    """
    if g.order != h.order:
        raise ValueError(f"orders differ: {g.order} vs {h.order}")
    p = g.order
    counterexample = _deletion_sweep(g.adjacency, h.adjacency, build_all_maps(p))
    return VerificationReport(
        check_name="hypomorphic-by-sigma",
        order=p,
        counterexample=counterexample,
        checked_count=p * (p - 1) ** 2,
    )


def decks_match_independent(
    g: Digraph, h: Digraph, budget: int = DEFAULT_ISO_BUDGET
) -> Optional[tuple[int, ...]]:
    """Match the two decks card-for-card without using the deletion mappings.

    Every card of g is tested against every card of h, and then each card
    of g in turn takes the first unused card of h isomorphic to it.
    Isomorphism is an equivalence relation, so this first fit finds a
    perfect matching exactly when each isomorphism class holds as many
    cards of g as of h.  Returns the matching (entry k-1 holds the h-card
    matched to g-card k) or None when none exists, which proves the decks
    differ.  Raises BudgetExhausted if any pairwise test ran out of budget.
    """
    if g.order != h.order:
        raise ValueError(f"orders differ: {g.order} vs {h.order}")
    p = g.order
    if p > DECK_MATCH_ORDER_LIMIT:
        raise ValueError(
            f"deck matching is budget-bounded to order <= {DECK_MATCH_ORDER_LIMIT}, got {p}"
        )
    cards_g = deck(g)
    cards_h = deck(h)
    adj: list[list[int]] = [[] for _ in range(p)]
    for i in range(p):
        for j in range(p):
            verdict = are_isomorphic(cards_g[i], cards_h[j], budget=budget)
            if verdict.status is IsoStatus.UNDECIDED:
                raise BudgetExhausted(
                    f"card pair ({i + 1}, {j + 1}) undecided within {budget} nodes"
                )
            if verdict.status is IsoStatus.ISOMORPHIC:
                adj[i].append(j + 1)
    matching: list[int] = []
    for candidates in adj:
        free = [j for j in candidates if j not in matching]
        if not free:
            return None
        matching.append(free[0])
    return tuple(matching)


class TraceStep(NamedTuple):
    order: int
    reason: str
    detail: str


class NonIsoTrace(NamedTuple):
    """Chain of verified steps from the requested order down to the base case."""

    steps: tuple[TraceStep, ...]


def _check_score_split(order: int, variant: MatrixVariant, signs: np.ndarray, first: int) -> None:
    """The first half of the points scores ``first``, the last half
    ``order - 1 - first``.  The scores and their p-byte comparison are
    freed on return, before the next variant is scored."""
    bad = _sign_scores(signs).reshape(2, order // 2) != [[first], [order - 1 - first]]
    if bad.any():
        raise ContradictionError(
            f"score split failed at p={order} ({variant.value}): "
            f"first mismatch at point {int(bad.argmax()) + 1}"
        )


def _induced_half(order: int, variant: MatrixVariant, signs: np.ndarray) -> np.ndarray:
    """The half-order signs, checked to be induced on the first half (plain)
    or the last half (starred) of the order-p ``signs``: lemma 1(a) read
    through signs, as both halves are diagonal quadrants, whose rows
    (``_nested_rows``) are compared with the half-order table, in O(p)."""
    half = _offset_case_table(order // 2, variant) > 0
    if not np.array_equal(_nested_rows(signs), half):
        which = "first" if variant is MatrixVariant.PLAIN else "last"
        raise ContradictionError(f"induced {which} half at p={order} differs from p={order // 2}")
    return half


def _verify_halving_step(order: int, signs: dict[MatrixVariant, np.ndarray]) -> str:
    """Verify the score split and the induced-half identity at one order on
    its sign tables, ``signs``, replacing each with the half-order one."""
    h = order // 2
    _check_score_split(order, MatrixVariant.PLAIN, signs[MatrixVariant.PLAIN], h)
    _check_score_split(order, MatrixVariant.STAR, signs[MatrixVariant.STAR], h - 1)
    for variant in MatrixVariant:
        signs[variant] = _induced_half(order, variant, signs[variant])
    return (
        f"scores split {h}/{h - 1} (reversed for the starred tournament); "
        f"induced halves equal the order-{h} pair entrywise"
    )


def _verify_base_case() -> str:
    """The census's order-4 verdict (``_census_verdicts``, which tries all
    24 bijections on every row) at the row of the tournament assignment."""
    row = int(tournament_assignment(2).bit_string, 2)
    if _census_verdicts(4)[0][row]:
        raise ContradictionError("order-4 pair failed the exhaustive base case")
    return "none of the 24 point bijections carries the arcs of one onto the other"


def verify_nonisomorphic_inductive(p: int) -> NonIsoTrace:
    """Run the halving argument from order p down to the order-4 base case.

    Each level's score split and induced-half identity are verified on the
    signs of the offset table (``_offset_case_table``), built once per
    variant and order and handed down, in O(p) per level, so the chain works
    far beyond orders where a dense matrix or a search would be feasible,
    afresh on every call.  Any failing step raises ContradictionError.
    """
    order_exponent(p)
    signs = {variant: _offset_case_table(p, variant) > 0 for variant in MatrixVariant}
    steps = []
    level = p
    while level >= 8:
        steps.append(TraceStep(level, REASON_SCORE_SPLIT, _verify_halving_step(level, signs)))
        level //= 2
    steps.append(TraceStep(4, REASON_BASE_CASE, _verify_base_case()))
    return NonIsoTrace(tuple(steps))
