"""The point-deletion mappings: construction, evaluation, and identity checks.

For every order p = 2**n >= 4 and every deleted point k, a bijection on
{1..p} minus {k} is defined.  The order-4 mappings are fixed tables; at
larger orders the value is obtained by folding both arguments into the
half order (subtract p/2 from anything above p/2), recursing, and adding
p/2 back when the queried point lay in the lower half.  Points whose fold
collides with the deleted point's fold are fixed.

``sigma`` is that folded evaluation (O(log p) per query), and
``sigma_values`` evaluates the fold in closed form on whole index arrays
(O(1) per query, from the lowest bit in which the two 0-based arguments
differ).  Both are derived simplifications, so the verbatim case-by-case
recursion is kept alongside as ``sigma_reference`` and the three are
cross-validated by the test suite (exhaustively at small orders), together
with the printed order 4/8/16 tables.

``_deletion_sweep`` is the one check that every mapping carries one
matrix onto another away from its deleted point; the exhaustive theorem 1
check and the digraph hypomorphism check both run it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from recon_census.report import VerificationReport
from recon_census.weight_matrix import _text_grid, order_exponent

__all__ = [
    "DeletionMap",
    "ExtendedMap",
    "base_sigma",
    "build_map",
    "check_lemma2",
    "extend_sigma_p1",
    "sigma",
    "sigma_reference",
    "sigma_table_tsv",
    "sigma_values",
]

# _SIGMA4[k-1, i-1] = image of point i when point k is deleted (order 4);
# the diagonal is a 0 placeholder for the undefined slot.
_SIGMA4 = np.array(
    [
        [0, 4, 2, 3],
        [3, 0, 4, 1],
        [4, 1, 0, 2],
        [2, 3, 1, 0],
    ],
    dtype=np.int32,
)
_SIGMA4.setflags(write=False)


def _check_args(p: int, k: int, i: int) -> None:
    order_exponent(p)
    if not 1 <= k <= p:
        raise IndexError(f"deleted point must lie in 1..{p}, got {k}")
    if not 1 <= i <= p:
        raise IndexError(f"point must lie in 1..{p}, got {i}")
    if i == k:
        raise ValueError(f"mapping is undefined at the deleted point {k}")


def sigma(p: int, k: int, i: int) -> int:
    """Image of point i under the order-p mapping that deletes point k."""
    _check_args(p, k, i)
    shift = 0
    while p > 4:
        h = p >> 1
        fi = i - h if i > h else i
        fk = k - h if k > h else k
        if fi == fk:
            return i + shift
        if i <= h:
            shift += h
        p, i, k = h, fi, fk
    return int(_SIGMA4[k - 1, i - 1]) + shift


def sigma_reference(p: int, k: int, i: int) -> int:
    """Verbatim case-by-case recursion; cross-check oracle for ``sigma``."""
    _check_args(p, k, i)
    if p == 4:
        return int(_SIGMA4[k - 1, i - 1])
    h = p // 2
    if k <= h:
        if i <= h:
            return sigma_reference(h, k, i) + h
        if i != k + h:
            return sigma_reference(h, k, i - h)
        return i
    if i <= h:
        if i != k - h:
            return sigma_reference(h, k - h, i) + h
        return i
    return sigma_reference(h, k - h, i - h)


def sigma_values(p: int, k, i) -> np.ndarray:
    """Vectorized ``sigma`` in closed form, O(1) per query.

    k and i are broadcast 1-based index arrays.  With a = i - 1 and
    b = k - 1, the fold stops at the level of the lowest bit in which a
    and b differ (or reaches order 4 when that bit is below 4).  Every
    higher level at which the queried point lay in the lower half adds
    that level's half order, i.e. the complemented bits of a above the
    stopping level.
    """
    order_exponent(p)
    k = np.asarray(k, dtype=np.int32)
    i = np.asarray(i, dtype=np.int32)
    k, i = np.broadcast_arrays(k, i)
    if i.size == 0:
        return np.zeros(i.shape, dtype=np.int32)
    if i.min() < 1 or i.max() > p or k.min() < 1 or k.max() > p:
        raise IndexError(f"points must lie in 1..{p}")
    if np.any(i == k):
        raise ValueError("mapping is undefined at the deleted point")
    a = i - 1
    b = k - 1
    diff = a ^ b
    low = diff & -diff
    below = np.maximum(2 * low - 1, 3)
    shift = ~a & (p - 1) & ~below
    out = np.where(low >= 4, (a & below) + 1, _SIGMA4[b & 3, a & 3])
    out += shift
    return out


@dataclass(frozen=True, eq=False)
class DeletionMap:
    """One mapping, tabulated.

    ``table`` is a read-only int32 array of p slots where slot i-1 holds
    the image of point i; the deleted point's slot holds the absence
    marker 0.
    """

    order: int
    deleted_point: int
    table: np.ndarray

    def __post_init__(self) -> None:
        order_exponent(self.order)
        if not 1 <= self.deleted_point <= self.order:
            raise ValueError(
                f"deleted point must lie in 1..{self.order}, got {self.deleted_point}"
            )
        table = np.ascontiguousarray(self.table, dtype=np.int32)
        if table.shape != (self.order,):
            raise ValueError(f"table must have {self.order} slots")
        if table[self.deleted_point - 1] != 0:
            raise ValueError("the deleted slot must hold the absence marker 0")
        points = np.arange(1, self.order + 1, dtype=np.int32)
        keep = points != self.deleted_point
        if not np.array_equal(np.sort(table[keep]), points[keep]):
            raise ValueError(
                "defined slots must form a bijection missing the deleted point"
            )
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    def apply(self, i: int) -> int:
        _check_args(self.order, self.deleted_point, i)
        return int(self.table[i - 1])

    def as_array(self) -> np.ndarray:
        return self.table

    def items(self):
        """Yield (point, image) pairs in point order, skipping the deleted slot."""
        for i in range(1, self.order + 1):
            if i != self.deleted_point:
                yield i, int(self.table[i - 1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeletionMap):
            return NotImplemented
        return (
            self.order == other.order
            and self.deleted_point == other.deleted_point
            and np.array_equal(self.table, other.table)
        )

    def __repr__(self) -> str:
        return f"DeletionMap(order={self.order}, deleted_point={self.deleted_point})"


@dataclass(frozen=True, eq=False)
class ExtendedMap:
    """The deleted-point-1 mapping extended to a full permutation by fixing 1."""

    order: int
    permutation: np.ndarray

    def __post_init__(self) -> None:
        order_exponent(self.order)
        if self.order < 8:
            raise ValueError(f"extension requires order >= 8, got {self.order}")
        perm = np.ascontiguousarray(self.permutation, dtype=np.int32)
        if perm.shape != (self.order,):
            raise ValueError(f"permutation must have {self.order} slots")
        if perm[0] != 1:
            raise ValueError("the extension must fix point 1")
        points = np.arange(1, self.order + 1, dtype=np.int32)
        if not np.array_equal(np.sort(perm), points):
            raise ValueError("extension is not a permutation")
        if not np.array_equal(perm[1:], _map_table(self.order, 1)[1:]):
            raise ValueError("extension must restrict to the point-1 deletion mapping")
        perm.setflags(write=False)
        object.__setattr__(self, "permutation", perm)

    def apply(self, i: int) -> int:
        if not 1 <= i <= self.order:
            raise IndexError(f"point must lie in 1..{self.order}, got {i}")
        return int(self.permutation[i - 1])

    def as_array(self) -> np.ndarray:
        return self.permutation

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtendedMap):
            return NotImplemented
        return self.order == other.order and np.array_equal(
            self.permutation, other.permutation
        )

    def __repr__(self) -> str:
        return f"ExtendedMap(order={self.order})"


@lru_cache(maxsize=None)
def _deletion_map(p: int, k: int) -> DeletionMap:
    # DeletionMap checks the bijection onto {1..p} minus {k}, once per (p, k)
    points = np.arange(1, p + 1, dtype=np.int32)
    keep = points != k
    table = np.zeros(p, dtype=np.int32)
    table[keep] = sigma_values(p, k, points[keep])
    return DeletionMap(p, k, table)


def _map_table(p: int, k: int) -> np.ndarray:
    return _deletion_map(p, k).table


def build_map(p: int, k: int) -> DeletionMap:
    """Tabulate the order-p mapping deleting point k (cached per (p, k))."""
    order_exponent(p)
    if not 1 <= k <= p:
        raise IndexError(f"deleted point must lie in 1..{p}, got {k}")
    return _deletion_map(p, k)


def base_sigma(k: int) -> DeletionMap:
    """The fixed order-4 mapping deleting point k."""
    return build_map(4, k)


def build_all_maps(p: int) -> tuple[DeletionMap, ...]:
    """All p mappings at order p, in deleted-point order."""
    order_exponent(p)
    return tuple(build_map(p, k) for k in range(1, p + 1))


def extend_sigma_p1(p: int) -> ExtendedMap:
    """Extend the point-1 deletion mapping to a permutation by fixing point 1."""
    order_exponent(p)
    if p < 8:
        raise ValueError(f"extend_sigma_p1 requires p >= 8, got {p}")
    perm = _map_table(p, 1).copy()
    perm[0] = 1
    return ExtendedMap(p, perm)


def sigma_table_tsv(p: int) -> str:
    """Tab-separated table, rows = point, columns = deleted point, 'X' at the hole.

    Row blocks are stacked from the cached map tables, whose absence
    marker 0 at the hole is the code of 'X'.
    """
    order_exponent(p)
    columns = [_map_table(p, k) for k in range(1, p + 1)]
    return _text_grid(
        p,
        lambda rows: np.stack([col[rows] for col in columns], axis=1),
        ["X", *map(str, range(1, p + 1))],
        "\t",
    )


def check_lemma2(p: int) -> VerificationReport:
    """Exhaustively verify the four mapping identities at order p >= 8.

    (a) deleting k and k + p/2 gives the same images away from both;
    (b) shifting the queried point by p/2 shifts its image by -p/2;
    (c) the image of j under the map deleting i lands at i +- p/2 exactly
    when j = i +- p/2, with matching sign; (d) under any deletion, image
    pairs differ by p/2 exactly when the points do, with the difference
    reversed in orientation.

    Parts (a)-(c) cost O(p) per deletion.  So does (d): under each
    deletion only the points at distance p/2 and the preimages of the
    images at distance p/2 can fail (``_lemma2_d``), so the whole check
    is O(p**2), and ``checked`` still counts every admissible pair.
    """
    order_exponent(p)
    if p < 8:
        raise ValueError(f"check_lemma2 requires p >= 8, got {p}")
    h = p // 2
    cols = [_map_table(p, k) for k in range(1, p + 1)]
    points = np.arange(1, p + 1, dtype=np.int32)
    checked = 0
    counterexample = None

    # (a) column halving
    for k in range(1, h + 1):
        a, b = cols[k - 1], cols[k + h - 1]
        mask = np.ones(p, dtype=bool)
        mask[[k - 1, k + h - 1]] = False
        checked += p - 2
        if counterexample is None:
            bad = np.nonzero((a != b) & mask)[0]
            if bad.size:
                i = int(bad[0]) + 1
                counterexample = (k, i, 0, int(a[i - 1]), int(b[i - 1]))

    # (b) half-shift equivariance
    low = np.arange(1, h + 1, dtype=np.int32)
    for k in range(1, p + 1):
        t = cols[k - 1]
        valid = (low != k) & (low + h != k)
        checked += int(valid.sum())
        if counterexample is None:
            lhs = t[low + h - 1]
            rhs = t[low - 1] - h
            bad = np.nonzero((lhs != rhs) & valid)[0]
            if bad.size:
                i = int(low[bad[0]])
                counterexample = (k, i + h, 0, int(lhs[bad[0]]), int(rhs[bad[0]]))

    # (c) distance-p/2 detection under deletion of an endpoint
    for i in range(1, p + 1):
        t = cols[i - 1]
        mask = points != i
        checked += p - 1
        if counterexample is None:
            plus_bad = ((points == i + h) != (t == i + h)) & mask
            minus_bad = ((points == i - h) != (t == i - h)) & mask
            bad = np.nonzero(plus_bad | minus_bad)[0]
            if bad.size:
                j = int(points[bad[0]])
                counterexample = (i, i, j, int(t[j - 1]), j)

    # (d) distance-p/2 preservation under every deletion
    checked += p * (p - 1) * (p - 1)
    if counterexample is None:
        counterexample = _lemma2_d(p, cols)

    return VerificationReport(
        check_name="lemma2",
        order=p,
        outcome=counterexample is None,
        counterexample=counterexample,
        checked_count=checked,
    )


def _lemma2_d(p: int, cols) -> Optional[tuple]:
    """First counterexample to lemma 2 (d) over the tables ``cols``, or None.

    Under the deletion of k, the pair (i, j) can fail only where j - i or
    image(i) - image(j) is +-p/2.  For each i those are the four columns
    i +- p/2 and the preimages of image(i) -+ p/2, read through the
    inverse table, so each deletion costs O(p).  The tables must be
    bijections, as ``DeletionMap`` checks.  The report is that of the
    full-matrix form ``_lemma2_d_reference``: the first failing pair in
    row-major order.
    """
    h = p // 2
    points = np.arange(1, p + 1, dtype=np.int64)
    for k in range(1, p + 1):
        t = cols[k - 1].astype(np.int64)
        rest = points[points != k]
        imgs = t[rest - 1]
        # inv[v + h] is the preimage of v, or 0 where v has none
        inv = np.zeros(2 * p + 1, dtype=np.int64)
        inv[imgs + h] = rest
        cand = np.stack([rest + h, rest - h, inv[imgs], inv[imgs + p]], axis=1)
        valid = (cand >= 1) & (cand <= p) & (cand != k)
        j = np.where(valid, cand, k)
        point_diff = j - rest[:, None]
        image_diff = imgs[:, None] - t[j - 1]
        bad = valid & (
            ((point_diff == h) != (image_diff == h))
            | ((point_diff == -h) != (image_diff == -h))
        )
        rows = np.nonzero(bad.any(axis=1))[0]
        if rows.size:
            r = int(rows[0])
            c = int(np.argmin(np.where(bad[r], j[r], p + 1)))
            return (
                k,
                int(rest[r]),
                int(j[r, c]),
                int(image_diff[r, c]),
                int(point_diff[r, c]),
            )
    return None


def _lemma2_d_reference(p: int, cols) -> Optional[tuple]:
    """Full-matrix form of ``_lemma2_d`` ((p-1)**2 pairs per deletion); test oracle."""
    h = p // 2
    points = np.arange(1, p + 1, dtype=np.int32)
    counterexample = None
    for k in range(1, p + 1):
        t = cols[k - 1]
        rest = points[points != k]
        imgs = t[rest - 1]
        point_diff = rest[None, :] - rest[:, None]       # j - i
        image_diff = imgs[:, None] - imgs[None, :]       # image(i) - image(j)
        if counterexample is None:
            bad = ((point_diff == h) != (image_diff == h)) | (
                (point_diff == -h) != (image_diff == -h)
            )
            if bad.any():
                r, c = divmod(int(np.argmax(bad)), bad.shape[1])
                counterexample = (
                    k,
                    int(rest[r]),
                    int(rest[c]),
                    int(image_diff[r, c]),
                    int(point_diff[r, c]),
                )
    return counterexample


def _permuted(x: np.ndarray, s) -> np.ndarray:
    """``x[np.ix_(s, s)]`` for 0-based indices ``s``, as two ``take`` gathers."""
    return x.take(s, axis=0).take(s, axis=1)


def _gray_slots(p: int) -> list[int]:
    """Slots 0..p-1 in bit-reversed Gray order: bitrev(j ^ (j >> 1)), j = 0..p-1.

    Consecutive slots differ in one bit, and bit t flips 2**t times in
    all.  For t >= 2 such a flip changes the table only at the p / 2**t
    points that agree with k - 1 below bit t (every other point's fold
    stops below bit t, at the same place for both deleted points), so
    each bit costs about p changed slots and the sweep about p * log2(p).
    """
    n = order_exponent(p)
    j = np.arange(p)
    gray = j ^ (j >> 1)
    rev = np.zeros(p, dtype=np.int64)
    for t in range(n):
        rev |= ((gray >> t) & 1) << (n - 1 - t)
    return rev.tolist()


def _deletion_sweep(
    a: np.ndarray, b: np.ndarray, tables
) -> tuple[Optional[tuple], int]:
    """Does each deletion map carry the p x p matrix a onto b?

    ``tables[k-1]`` holds the 1-based images of the map deleting k (its
    deleted slot is ignored).  Returns the first (k, i, j, a[i, j],
    b[image(i), image(j)]) with the two values unequal, in k order and
    then row-major (i, j), or None; and the p * (p-1)**2 triples checked.

    One buffer ``rhs`` holds b[idx][:, idx] for the 0-based table ``idx``
    of the current deletion.  Deletions are visited in ``_gray_slots``
    order, and between two of them only the rows and columns whose index
    changed are gathered again, so the gathers cost O(p**2 log p) for
    the order's own tables (and stay correct for any tables).  Row and
    column k of ``rhs`` are overwritten with those of a, so one full
    comparison per k checks every pair away from k; deletions above the
    best counterexample so far are not compared.  The per-deletion block
    copy this replaces is kept as ``_deletion_sweep_reference``.
    """
    p = a.shape[0]
    rhs = None
    # per slot, the row and column of b that rhs holds; -1 where it holds a's
    held = None
    best = None
    for s in _gray_slots(p):
        idx = np.subtract(tables[s], 1, dtype=np.int64)
        idx[s] = s
        if rhs is None:
            rhs = _permuted(b, idx)
        else:
            d = np.flatnonzero(idx != held)
            rhs[d, :] = b.take(idx[d], axis=0).take(idx, axis=1)
            rhs[:, d] = b.take(idx[d], axis=1).take(idx, axis=0)
        rhs[s, :] = a[s, :]
        rhs[:, s] = a[:, s]
        if (best is None or s + 1 < best[0]) and not np.array_equal(a, rhs):
            r, c = divmod(int(np.argmax(a != rhs)), p)
            best = (s + 1, r + 1, c + 1, int(a[r, c]), int(rhs[r, c]))
        idx[s] = -1
        held = idx
    return best, p * (p - 1) * (p - 1)


def _deletion_sweep_reference(
    a: np.ndarray, b: np.ndarray, tables
) -> tuple[Optional[tuple], int]:
    """Per-deletion (p-1) x (p-1) block copy form of ``_deletion_sweep``; test oracle."""
    p = a.shape[0]
    points = np.arange(1, p + 1, dtype=np.int32)
    checked = 0
    counterexample = None
    for k in range(1, p + 1):
        rest = points[points != k]
        imgs = tables[k - 1][rest - 1]
        lhs = a[np.ix_(rest - 1, rest - 1)]
        rhs = b[np.ix_(imgs - 1, imgs - 1)]
        checked += (p - 1) * (p - 1)
        if counterexample is None and not np.array_equal(lhs, rhs):
            r, c = divmod(int(np.argmax(lhs != rhs)), p - 1)
            counterexample = (
                k,
                int(rest[r]),
                int(rest[c]),
                int(lhs[r, c]),
                int(rhs[r, c]),
            )
    return counterexample, checked
