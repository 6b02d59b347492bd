"""Verifiers tying the weighted matrices to the deletion mappings.

``check_lemma3`` verifies the sign rule linking an entry of the plain
matrix to the starred entry at the mapped position (negated exactly at
point distance p/2, and everywhere off-diagonal at p = 4).

``check_theorem1`` verifies the hypomorphism identity exhaustively: for
every deleted point k, the plain entry at (i, j) equals the starred entry
at the mapped pair, over all p * (p-1)**2 admissible triples.
``check_hypomorphisms`` checks theorem 1 and both digraph pairs of the
order in one deletion sweep of the cached dense matrices of
``build_dense`` over the map table of ``build_all_maps``, reading the
levels through each table of ``level_tables``; ``check_theorem1`` is its
first report.  It is the library's dense route and the test oracle of
``theorem1_automaton.decide_hypomorphisms``, which the command line runs.
``sample_theorem1`` checks theorem 1 on seeded random triples through the
entry oracle, the automaton's test oracle at large orders.
"""

from __future__ import annotations

import numpy as np

from recon_census.deletion_maps import _deletion_sweep, build_all_maps, sigma_values
from recon_census.digraph_builder import (
    _bit_lut,
    tournament_assignment,
    variant_assignment,
)
from recon_census.report import VerificationReport
from recon_census.weight_matrix import (
    MatrixVariant,
    _first_cell,
    build_dense,
    entry_values,
    order_exponent,
)

__all__ = [
    "VerificationReport",
    "check_hypomorphisms",
    "check_lemma3",
    "check_theorem1",
    "level_tables",
    "sample_theorem1",
]

# Triples drawn per generator call, and evaluated per block: a block's
# int32 index arrays and temporaries (256 KB each) stay within a 2 MB L2.
_SAMPLE_CHUNK = 1 << 18
_EVAL_BLOCK = 1 << 16
# The identity level table of the int8 levels: entry v, counted from the
# end where v < 0 as numpy indexes, holds v itself.
_INT8_IDENTITY = np.arange(256, dtype=np.uint8).view(np.int8)


def check_lemma3(p: int) -> VerificationReport:
    """Verify the sign rule over all ordered pairs of distinct points.

    The first equality maps the column by the deletion at the row point;
    the second maps the row by the deletion at the column point, which is
    the first read on the transposed matrices.  Each is one masked
    row-block scan (``weight_matrix._first_cell``) of the cached dense
    matrices against the map table, and a failure reports the first
    pair, rows of the first equality before those of the second.
    """
    order_exponent(p)
    h = p // 2
    plain = build_dense(p, MatrixVariant.PLAIN).entries
    star = build_dense(p, MatrixVariant.STAR).entries
    tables = build_all_maps(p)
    points = np.arange(p)

    def first_failure(lhs, rhs, transposed):
        """First (0, i, j, lhs, rhs) of one equality, or None."""

        def signed(rows):
            # rhs at the mapped column, negated where |i - j| = p/2 (j is
            # i with the top bit flipped) and everywhere at p = 4
            mapped = np.take_along_axis(rhs[rows], tables[rows] - 1, axis=1)
            if p == 4:
                return -mapped
            mapped[np.arange(mapped.shape[0]), points[rows] ^ h] *= -1
            return mapped

        def unequal(rows):
            neq = lhs[rows] != signed(rows)
            # the diagonal, where the hole's 0 read column p
            neq[np.arange(neq.shape[0]), points[rows]] = False
            return neq

        cell = _first_cell(p, p, unequal)
        if cell is None:
            return None
        r, c = cell
        i, j = (c, r) if transposed else (r, c)
        return (0, i + 1, j + 1, int(lhs[r, c]), int(signed(slice(r, r + 1))[0, c]))

    counterexample = first_failure(plain, star, False) or first_failure(
        plain.T, star.T, True
    )

    return VerificationReport(
        check_name="lemma3",
        order=p,
        counterexample=counterexample,
        checked_count=2 * p * (p - 1),
    )


def level_tables(p: int) -> dict[str, np.ndarray]:
    """Each report's level table at order p, by name in report order: the
    identity for ``theorem1``, and the bit tables of the tournament and,
    from p = 8, the variant assignment for the digraph pairs (a digraph is
    its level matrix read through its assignment, ``apply_assignment``)."""
    n = order_exponent(p)
    luts = {
        "theorem1": _INT8_IDENTITY,
        "hypo-sigma-tournament": _bit_lut(tournament_assignment(n)),
    }
    if p >= 8:
        luts["hypo-sigma-variant"] = _bit_lut(variant_assignment(n))
    return luts


def check_hypomorphisms(p: int) -> list[VerificationReport]:
    """Theorem 1 and the hypomorphism of both digraph pairs of order p, in
    one deletion sweep of the level matrices.

    The sweep (``deletion_maps._deletion_sweep``) reads the cached dense
    matrices (``build_dense``, p <= ``DENSE_ORDER_LIMIT``) over
    ``build_all_maps(p)`` through each table of ``level_tables(p)``, only
    at deletions whose levels differ.  Each pair's report is the one
    ``iso_engine.verify_hypomorphic_by_sigma`` gives for it, and each
    report counts p * (p-1)**2 triples.
    """
    luts = level_tables(p)
    counterexamples, checked = _deletion_sweep(
        build_dense(p, MatrixVariant.PLAIN).entries,
        build_dense(p, MatrixVariant.STAR).entries,
        build_all_maps(p),
        list(luts.values()),
    )
    return [
        VerificationReport(name, p, counterexample, checked)
        for name, counterexample in zip(luts, counterexamples)
    ]


def check_theorem1(p: int) -> VerificationReport:
    """Exhaustively verify the hypomorphism identity at order p.

    The first report of ``check_hypomorphisms``: one deletion sweep of the
    cached dense matrices, whose identity level table compares the levels
    themselves.  Its gathers cost O(p**2 log p), and each deletion one
    word-wide comparison of the p**2 levels: p**3 bytes in all (0.03 s at
    p = 512 and 0.3 s at p = 1024, with the matrices and the map table
    built).  ``theorem1_automaton.decide_theorem1`` gives the same report
    at every order without the dense matrices; the CLI runs that.
    """
    return check_hypomorphisms(p)[0]


def sample_theorem1(p: int, trials: int, rng_seed: int) -> VerificationReport:
    """Check the hypomorphism identity on uniformly sampled triples.

    Triples (k, i, j) are drawn with i and j uniform over the points
    other than k; the draw sequence is fixed by ``rng_seed``.  They are
    drawn ``_SAMPLE_CHUNK`` at a time (k, then i, then j) and evaluated
    ``_EVAL_BLOCK`` at a time, so each block's index arrays and their
    temporaries stay in cache; the block size changes neither the
    triples nor the first counterexample.  Each block is one
    ``entry_values`` call per side and one ``sigma_values`` call per
    mapped point.
    """
    order_exponent(p)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(rng_seed)
    counterexample = None
    for start in range(0, trials, _SAMPLE_CHUNK):
        size = min(_SAMPLE_CHUNK, trials - start)
        k = rng.integers(1, p + 1, size=size, dtype=np.int64).astype(np.int32)
        i = rng.integers(1, p, size=size, dtype=np.int64).astype(np.int32)
        j = rng.integers(1, p, size=size, dtype=np.int64).astype(np.int32)
        i += i >= k
        j += j >= k
        for lo in range(0, size, _EVAL_BLOCK):
            block = slice(lo, lo + _EVAL_BLOCK)
            kb, ib, jb = k[block], i[block], j[block]
            lhs = entry_values(p, MatrixVariant.PLAIN, ib, jb)
            rhs = entry_values(
                p, MatrixVariant.STAR, sigma_values(p, kb, ib), sigma_values(p, kb, jb)
            )
            bad = np.flatnonzero(lhs != rhs)
            if counterexample is None and bad.size:
                counterexample = tuple(int(v[bad[0]]) for v in (kb, ib, jb, lhs, rhs))

    return VerificationReport(
        check_name="theorem1-sampled",
        order=p,
        counterexample=counterexample,
        checked_count=trials,
        seed=rng_seed,
    )
