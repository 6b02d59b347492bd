"""Verifiers tying the weighted matrices to the deletion mappings.

``check_lemma3`` verifies the sign rule linking an entry of the plain
matrix to the starred entry at the mapped position (negated exactly at
point distance p/2, and everywhere off-diagonal at p = 4) at every order,
on two planes of theorem 1's digit automaton.

``check_theorem1`` verifies the hypomorphism identity exhaustively: for
every deleted point k, the plain entry at (i, j) equals the starred entry
at the mapped pair, over all p * (p-1)**2 admissible triples, in one
deletion sweep of the dense matrices of ``build_dense`` over the map
table of ``build_all_maps``, each built for the call.  It is the library's
dense route; ``theorem1_automaton.decide_hypomorphisms(p)[0]``, which the
command line runs, gives the same report at every order.
``sample_theorem1`` checks theorem 1 on seeded random triples through the
entry oracle, the automaton's test oracle at large orders.
"""

from __future__ import annotations

import numpy as np

from recon_census.deletion_maps import _deletion_sweep, build_all_maps, sigma_values
from recon_census.report import VerificationReport
from recon_census.theorem1_automaton import (
    _PENDING,
    _first_failure,
    _LevelRule,
    _plain_offset,
    _plane,
    _walk,
)
from recon_census.weight_matrix import MatrixVariant, build_dense, entry_values, order_exponent

__all__ = [
    "VerificationReport",
    "check_lemma3",
    "check_theorem1",
    "sample_theorem1",
]

# Triples drawn per generator call, and evaluated per block: a block's
# int32 index arrays and temporaries (256 KB each) stay within a 2 MB L2.
_SAMPLE_CHUNK = 1 << 18
_EVAL_BLOCK = 1 << 16


def check_lemma3(p: int) -> VerificationReport:
    """Verify the sign rule over all ordered pairs of distinct points.

    The first equality maps the column by the deletion at the row point,
    the second the row by the deletion at the column point: theorem 1's
    digit automaton on its planes k = i and k = j (``theorem1_automaton``).
    The sign is -1 where the plain offset is pending after the top layer
    with r = c (|i - j| = p/2), and everywhere at p = 4.  A failure reports
    the first pair, rows of the first equality before those of the
    second, its entries read through ``entry_values`` and ``sigma_values``.
    """
    counterexample = None
    planes = (lambda a, b, c: b == a, lambda a, b, c: b == c)  # k = i, then k = j
    for first, plane in zip((True, False), planes):
        layers, final, plain, star = _walk(p, _LevelRule(p), *_plane(plane))
        status, r, c = _plain_offset(final)
        sign = np.where((p == 4) | ((status == _PENDING) & (r == c)), -1, 1)
        # one seen bit stays 0 on a plane, and the other says i != j
        bad = (final & 3 != 0) & (plain != sign * star)
        if bad.any():
            _, i, j = _first_failure(layers, final, bad)
            row, col = (i, sigma_values(p, i, j)) if first else (sigma_values(p, j, i), j)
            s = -1 if p == 4 or abs(i - j) == p // 2 else 1
            lhs = int(entry_values(p, MatrixVariant.PLAIN, i, j))
            rhs = s * int(entry_values(p, MatrixVariant.STAR, row, col))
            counterexample = (0, i, j, lhs, rhs)
            break
    return VerificationReport("lemma3", p, counterexample, 2 * p * (p - 1))


def check_theorem1(p: int) -> VerificationReport:
    """Exhaustively verify the hypomorphism identity at order p.

    One deletion sweep (``deletion_maps._deletion_sweep``) of the dense
    matrices (``build_dense``) over ``build_all_maps(p)``, O(p**3):
    0.3 s at p = 512 and about 2 s at p = 1024.  The CLI runs
    ``theorem1_automaton.decide_hypomorphisms(p)[0]``, the same report at
    every order.
    """
    counterexample = _deletion_sweep(
        build_dense(p, MatrixVariant.PLAIN).entries,
        build_dense(p, MatrixVariant.STAR).entries,
        build_all_maps(p),
    )
    return VerificationReport("theorem1", p, counterexample, p * (p - 1) ** 2)


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
