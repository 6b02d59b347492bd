"""Verifiers tying the weighted matrices to the deletion mappings.

``check_lemma3`` verifies the sign rule linking an entry of the plain
matrix to the starred entry at the mapped position (negated exactly at
point distance p/2, and everywhere off-diagonal at p = 4).

``check_theorem1`` verifies the hypomorphism identity exhaustively: for
every deleted point k, the plain entry at (i, j) equals the starred entry
at the mapped pair, over all p * (p-1)**2 admissible triples.
``sample_theorem1`` spot-checks the same identity at orders where the
cubic sweep is infeasible, with a seeded generator for reproducibility.
"""

from __future__ import annotations

import numpy as np

from recon_census.deletion_maps import _deletion_sweep, build_all_maps, sigma_values
from recon_census.report import VerificationReport
from recon_census.weight_matrix import (
    MatrixVariant,
    entry_grid,
    entry_values,
    order_exponent,
)

__all__ = [
    "VerificationReport",
    "check_lemma3",
    "check_theorem1",
    "sample_theorem1",
]

_SAMPLE_CHUNK = 1 << 18


def check_lemma3(p: int) -> VerificationReport:
    """Verify the sign rule over all ordered pairs of distinct points."""
    order_exponent(p)
    h = p // 2
    plain = entry_grid(p, MatrixVariant.PLAIN).astype(np.int32)
    star = entry_grid(p, MatrixVariant.STAR).astype(np.int32)
    tables = build_all_maps(p)
    points = np.arange(1, p + 1, dtype=np.int32)
    checked = 0
    counterexample = None

    def signs_for(fixed: int, others: np.ndarray) -> np.ndarray:
        if p == 4:
            return np.full(others.shape, -1, dtype=np.int32)
        return np.where(np.abs(others - fixed) == h, -1, 1)

    # first equality: map the column by the deletion at the row point
    for i in range(1, p + 1):
        t = tables[i - 1]
        js = points[points != i]
        lhs = plain[i - 1, js - 1]
        rhs = signs_for(i, js) * star[i - 1, t[js - 1] - 1]
        checked += p - 1
        if counterexample is None:
            bad = np.nonzero(lhs != rhs)[0]
            if bad.size:
                j = int(js[bad[0]])
                counterexample = (0, i, j, int(lhs[bad[0]]), int(rhs[bad[0]]))

    # second equality: map the row by the deletion at the column point
    for j in range(1, p + 1):
        t = tables[j - 1]
        is_ = points[points != j]
        lhs = plain[is_ - 1, j - 1]
        rhs = signs_for(j, is_) * star[t[is_ - 1] - 1, j - 1]
        checked += p - 1
        if counterexample is None:
            bad = np.nonzero(lhs != rhs)[0]
            if bad.size:
                i = int(is_[bad[0]])
                counterexample = (0, i, j, int(lhs[bad[0]]), int(rhs[bad[0]]))

    return VerificationReport(
        check_name="lemma3",
        order=p,
        outcome=counterexample is None,
        counterexample=counterexample,
        checked_count=checked,
    )


def check_theorem1(p: int) -> VerificationReport:
    """Exhaustively verify the hypomorphism identity at order p.

    Builds both dense grids (O(p**2) memory) and runs the shared
    deletion sweep (``deletion_maps._deletion_sweep``): its gathers cost
    O(p**2 log p) and each deletion one full-grid comparison, p**3 byte
    comparisons in all (0.07 s at p = 512, 0.5 s at p = 1024, with the
    map tables built).  The CLI switches to ``sample_theorem1`` above its
    exhaustive limit.
    """
    order_exponent(p)
    plain = entry_grid(p, MatrixVariant.PLAIN)
    star = entry_grid(p, MatrixVariant.STAR)
    counterexample, checked = _deletion_sweep(plain, star, build_all_maps(p))
    return VerificationReport(
        check_name="theorem1",
        order=p,
        outcome=counterexample is None,
        counterexample=counterexample,
        checked_count=checked,
    )


def sample_theorem1(p: int, trials: int, rng_seed: int) -> VerificationReport:
    """Check the hypomorphism identity on uniformly sampled triples.

    Triples (k, i, j) are drawn with i and j uniform over the points
    other than k; the draw sequence is fixed by ``rng_seed``.
    """
    order_exponent(p)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(rng_seed)
    checked = 0
    counterexample = None

    remaining = trials
    while remaining > 0:
        size = min(remaining, _SAMPLE_CHUNK)
        remaining -= size
        k = rng.integers(1, p + 1, size=size, dtype=np.int64).astype(np.int32)
        i = rng.integers(1, p, size=size, dtype=np.int64).astype(np.int32)
        j = rng.integers(1, p, size=size, dtype=np.int64).astype(np.int32)
        i += i >= k
        j += j >= k
        lhs = entry_values(p, MatrixVariant.PLAIN, i, j)
        rhs = entry_values(
            p, MatrixVariant.STAR, sigma_values(p, k, i), sigma_values(p, k, j)
        )
        checked += size
        if counterexample is None:
            bad = np.nonzero(lhs != rhs)[0]
            if bad.size:
                b = int(bad[0])
                counterexample = (
                    int(k[b]),
                    int(i[b]),
                    int(j[b]),
                    int(lhs[b]),
                    int(rhs[b]),
                )

    return VerificationReport(
        check_name="theorem1-sampled",
        order=p,
        outcome=counterexample is None,
        counterexample=counterexample,
        checked_count=checked,
        seed=rng_seed,
    )
