"""Verifiers tying the weighted matrices to the deletion mappings.

``check_lemma3`` verifies the sign rule linking an entry of the plain
matrix to the starred entry at the mapped position (negated exactly at
point distance p/2, and everywhere off-diagonal at p = 4).

``check_theorem1`` verifies the hypomorphism identity exhaustively: for
every deleted point k, the plain entry at (i, j) equals the starred entry
at the mapped pair, over all p * (p-1)**2 admissible triples.  Both read
the cached dense matrices of ``build_dense`` and the map table of
``build_all_maps``.  ``sample_theorem1`` spot-checks the same identity at
orders where the cubic sweep is infeasible, through the entry oracle,
with a seeded generator for reproducibility.
"""

from __future__ import annotations

import numpy as np

from recon_census.deletion_maps import _deletion_sweep, build_all_maps, sigma_values
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
    "check_lemma3",
    "check_theorem1",
    "sample_theorem1",
]

_SAMPLE_CHUNK = 1 << 18


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


def check_theorem1(p: int) -> VerificationReport:
    """Exhaustively verify the hypomorphism identity at order p.

    Reads the cached dense matrices (``build_dense``, p <=
    ``DENSE_ORDER_LIMIT``) and runs the shared deletion sweep
    (``deletion_maps._deletion_sweep``): its gathers cost O(p**2 log p)
    and each deletion one full-grid comparison, p**3 byte comparisons in
    all (0.07 s at p = 512, 0.5 s at p = 1024, with the map tables
    built).  The CLI switches to ``sample_theorem1`` above its exhaustive
    limit.
    """
    order_exponent(p)
    plain = build_dense(p, MatrixVariant.PLAIN).entries
    star = build_dense(p, MatrixVariant.STAR).entries
    counterexample, checked = _deletion_sweep(plain, star, build_all_maps(p))
    return VerificationReport(
        check_name="theorem1",
        order=p,
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
        counterexample=counterexample,
        checked_count=checked,
        seed=rng_seed,
    )
