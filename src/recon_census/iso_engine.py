"""Digraph isomorphism decisions, decks, and the inductive non-isomorphism proof.

``are_isomorphic`` is a budgeted backtracking search over point bijections
used as an oracle at small orders.  ``decks_match_independent`` validates
hypomorphism without trusting the deletion mappings, by bipartite matching
over pairwise card isomorphism tests.  ``verify_nonisomorphic_inductive``
runs the halving argument at any order: the score split forces any
isomorphism of the canonical pair to map the first half onto the last
half, those halves induce the canonical pair of half order, and the
order-4 base case is settled by exhaustive search; no verdict is cached.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from recon_census.deletion_maps import _check_table, _deletion_sweep
from recon_census.digraph_builder import (
    Digraph,
    _is_arc_preserving,
    standard_pair,
    threshold_scores,
)
from recon_census.errors import BudgetExhausted, ContradictionError
from recon_census.report import VerificationReport
from recon_census.weight_matrix import (
    MatrixVariant,
    _nested_rows,
    _offset_case_table,
    entry_grid,
    order_exponent,
)

__all__ = [
    "DECK_MATCH_ORDER_LIMIT",
    "IsoStatus",
    "IsoVerdict",
    "NODE_BUDGET",
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

NODE_BUDGET = 1_000_000
#: Largest order where deck matching's p**2 card-pair searches fit the budget.
DECK_MATCH_ORDER_LIMIT = 12

REASON_SCORE_SPLIT = "score-split forces half-to-half mapping"
REASON_BASE_CASE = "base case: exhaustive search"


class IsoStatus(enum.Enum):
    ISOMORPHIC = "isomorphic"
    NON_ISOMORPHIC = "non-isomorphic"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class IsoVerdict:
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
    g: Digraph, h: Digraph, budget: int = NODE_BUDGET, *, degree_pruning: bool = True
) -> IsoVerdict:
    """Decide isomorphism by backtracking over point bijections.

    Points of ``g`` are processed in (outdegree, indegree, index) order
    and matched only against points of ``h`` in the same degree class
    (unless ``degree_pruning`` is disabled, which must not change any
    verdict).  Every candidate pairing counts one node against
    ``budget``; exhausting it yields an undecided verdict.  A found
    witness is re-verified arc by arc before being returned.
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

    if degree_pruning and sorted(g_key) != sorted(h_key):
        return IsoVerdict(IsoStatus.NON_ISOMORPHIC, nodes=0)

    vertex_order = sorted(range(p), key=lambda v: (g_out[v], g_in[v], v))
    if degree_pruning:
        candidates = [[w for w in range(p) if h_key[w] == g_key[v]] for v in range(p)]
    else:
        candidates = [list(range(p)) for _ in range(p)]

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


def verify_hypomorphic_by_sigma(g: Digraph, h: Digraph, tables) -> VerificationReport:
    """Check that each deletion mapping carries card k of g onto card k of h.

    ``tables`` is a ``(p, p)`` map table laid out as ``build_all_maps(p)``
    (row k - 1 holds the images under the deletion of k, 0 at the hole);
    a row that is not such a bijection raises ValueError.  The relabelings
    cancel, so the test is: for every deleted point k and all points i, j
    other than k, g has the arc (i, j) exactly when h has the arc
    (image(i), image(j)).
    """
    if g.order != h.order:
        raise ValueError(f"orders differ: {g.order} vs {h.order}")
    p = g.order
    tables = _check_table(p, tables)
    counterexample, checked = _deletion_sweep(g.adjacency, h.adjacency, tables)
    return VerificationReport(
        check_name="hypomorphic-by-sigma",
        order=p,
        counterexample=counterexample,
        checked_count=checked,
    )


def _max_bipartite_matching(n: int, adj: list[list[int]]) -> list[int]:
    """Left-to-right matching (index per left node, -1 if unmatched)."""
    match_right = [-1] * n

    def augment(u: int, seen: list[bool]) -> bool:
        for v in adj[u]:
            if seen[v]:
                continue
            seen[v] = True
            if match_right[v] == -1 or augment(match_right[v], seen):
                match_right[v] = u
                return True
        return False

    for u in range(n):
        augment(u, [False] * n)
    match_left = [-1] * n
    for v, u in enumerate(match_right):
        if u != -1:
            match_left[u] = v
    return match_left


def decks_match_independent(
    g: Digraph, h: Digraph, budget: int = NODE_BUDGET
) -> Optional[tuple[int, ...]]:
    """Match the two decks card-for-card without using the deletion mappings.

    Builds the bipartite graph whose edge (i, j) means card i of g is
    isomorphic to card j of h, and looks for a perfect matching.  Returns
    the matching (entry k-1 holds the h-card matched to g-card k) or None
    when no perfect matching exists, which proves the decks differ.
    Raises BudgetExhausted if any pairwise test ran out of budget.
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
                adj[i].append(j)
    match_left = _max_bipartite_matching(p, adj)
    if any(v == -1 for v in match_left):
        return None
    return tuple(v + 1 for v in match_left)


@dataclass(frozen=True)
class TraceStep:
    order: int
    reason: str
    detail: str


@dataclass(frozen=True)
class NonIsoTrace:
    """Chain of verified steps from the requested order down to the base case."""

    steps: tuple[TraceStep, ...]

    def to_json(self) -> list[dict]:
        return [
            {"p": s.order, "reason": s.reason, "detail": s.detail} for s in self.steps
        ]


def _induced_halves_mismatch(order: int) -> Optional[str]:
    """The first failing induced-half identity at one order, or None.

    This is lemma 1(a) read through signs: the first half of the plain
    matrix and the last half of the starred one are diagonal quadrants,
    so comparing their class-table rows (``_nested_rows``) with the
    half-order table is the entrywise comparison, in O(p).
    """
    h = order // 2
    for variant, which in (
        (MatrixVariant.PLAIN, "first"),
        (MatrixVariant.STAR, "last"),
    ):
        big = _nested_rows(order, variant) > 0
        small = _offset_case_table(h, variant) > 0
        if not np.array_equal(big, small):
            return f"induced {which} half at p={order} differs from p={h}"
    return None


def _induced_halves_mismatch_reference(order: int) -> Optional[str]:
    """Entry-grid form of ``_induced_halves_mismatch`` (O(p**2)); test oracle."""
    h = order // 2
    idx = np.arange(1, h + 1, dtype=np.int32)
    for variant, which, shift in (
        (MatrixVariant.PLAIN, "first", 0),
        (MatrixVariant.STAR, "last", h),
    ):
        big = entry_grid(order, variant, idx + shift, idx + shift) > 0
        small = entry_grid(h, variant, idx, idx) > 0
        if not np.array_equal(big, small):
            return f"induced {which} half at p={order} differs from p={h}"
    return None


def _verify_halving_step(order: int) -> str:
    """Verify the score split and the induced-half identity at one order."""
    h = order // 2
    for variant, first in (
        (MatrixVariant.PLAIN, h),
        (MatrixVariant.STAR, h - 1),
    ):
        got = threshold_scores(order, variant)
        expected = np.concatenate(
            [
                np.full(h, first, dtype=np.int64),
                np.full(h, order - 1 - first, dtype=np.int64),
            ]
        )
        if not np.array_equal(got, expected):
            raise ContradictionError(
                f"score split failed at p={order} ({variant.value}): "
                f"first mismatch at point {int(np.argmax(got != expected)) + 1}"
            )
    mismatch = _induced_halves_mismatch(order)
    if mismatch is not None:
        raise ContradictionError(mismatch)
    return (
        f"scores split {h}/{h - 1} (reversed for the starred tournament); "
        f"induced halves equal the order-{h} pair entrywise"
    )


def _verify_base_case() -> str:
    g, h = standard_pair(4)
    # unpruned so the search space really is every point bijection
    verdict = are_isomorphic(g, h, budget=NODE_BUDGET, degree_pruning=False)
    if verdict.status is not IsoStatus.NON_ISOMORPHIC:
        raise ContradictionError("order-4 pair failed the exhaustive base case")
    return f"exhaustive search over point bijections ({verdict.nodes} nodes)"


def verify_nonisomorphic_inductive(p: int) -> NonIsoTrace:
    """Run the halving argument from order p down to the order-4 base case.

    Each level's score split and induced-half identity are verified
    computationally on the per-order class table of block offsets and
    residues, in O(p) per level, so the chain works far beyond orders
    where a dense matrix or a search would be feasible, afresh on every
    call.  Any failing step raises ContradictionError.
    """
    order_exponent(p)
    steps = []
    level = p
    while level >= 8:
        steps.append(TraceStep(level, REASON_SCORE_SPLIT, _verify_halving_step(level)))
        level //= 2
    steps.append(TraceStep(4, REASON_BASE_CASE, _verify_base_case()))
    return NonIsoTrace(tuple(steps))
