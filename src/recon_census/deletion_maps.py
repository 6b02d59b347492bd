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

The mappings at order p are stored in one form only: the read-only
``(p, p)`` int32 table of ``build_all_maps``, whose row k - 1 holds the
1-based images under the deletion of k and 0 at the hole.  Every row is
checked to be a bijection onto the points other than k, and only the last
order's table is cached (4 * p**2 bytes).  ``build_map`` computes one row
in O(p) without the table.

``_deletion_sweep`` is the one check that every mapping carries one
matrix onto another away from its deleted point; the exhaustive theorem 1
check and the digraph hypomorphism check both run it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from recon_census.report import VerificationReport
from recon_census.weight_matrix import _first_cell, _text_grid, order_exponent

__all__ = [
    "build_all_maps",
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

# cells per block of rows when a p x p map table is built or validated
_BLOCK_CELLS = 1 << 14


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
    return _sigma_closed_form(p, k, i)


def _sigma_closed_form(p: int, k: np.ndarray, i: np.ndarray) -> np.ndarray:
    """``sigma_values`` without its checks; int32 k and i, any value where i = k."""
    a = i - 1
    b = k - 1
    diff = a ^ b
    low = diff & -diff
    below = np.maximum(2 * low - 1, 3)
    shift = ~a & (p - 1) & ~below
    out = np.where(low >= 4, (a & below) + 1, _SIGMA4[b & 3, a & 3])
    out += shift
    return out


def _map_rows(p: int, ks: np.ndarray) -> np.ndarray:
    """Table rows of the maps deleting the points ``ks``: 1-based images, 0 at the hole."""
    points = np.arange(1, p + 1, dtype=np.int32)
    rows = _sigma_closed_form(p, ks[:, None], points)
    rows[np.arange(ks.size), ks - 1] = 0
    return rows


def _check_rows(p: int, first: int, rows: np.ndarray) -> None:
    """Raise ValueError unless each row is the table of a deletion map.

    Row r must delete the point ``first + r``: 0 in its slot, and the
    other slots a bijection onto the p - 1 other points.  One bincount
    per block of rows, O(p) per row.
    """
    n = rows.shape[0]
    ks = np.arange(first, first + n)
    if rows.min() < 0 or rows.max() > p:
        raise ValueError(f"images must lie in 1..{p}")
    holes = rows[np.arange(n), ks - 1]
    if np.any(holes != 0):
        k = int(ks[np.argmax(holes != 0)])
        raise ValueError(f"map {k}: the deleted slot must hold the absence marker 0")
    counts = np.bincount(
        (rows + (p + 1) * np.arange(n)[:, None]).ravel(), minlength=n * (p + 1)
    ).reshape(n, p + 1)
    counts[np.arange(n), ks] += 1
    bad = np.nonzero((counts != 1).any(axis=1))[0]
    if bad.size:
        k = int(ks[bad[0]])
        raise ValueError(f"map {k} is not a bijection onto the points other than {k}")


def _block_rows(p: int) -> int:
    """Rows in a block of about ``_BLOCK_CELLS`` cells of a p x p table."""
    return max(1, _BLOCK_CELLS // p)


def _check_table(p: int, tables) -> np.ndarray:
    """``tables`` as a validated ``(p, p)`` table of all deletion maps at order p."""
    tables = np.asarray(tables)
    if tables.shape != (p, p) or not np.issubdtype(tables.dtype, np.integer):
        raise ValueError(
            f"expected a ({p}, {p}) integer table of deletion maps, "
            f"got shape {tables.shape} of {tables.dtype}"
        )
    step = _block_rows(p)
    for start in range(0, p, step):
        _check_rows(p, start + 1, tables[start : start + step])
    return tables


def build_map(p: int, k: int) -> np.ndarray:
    """Table of the order-p mapping deleting point k, in O(p).

    Slot i - 1 holds the image of point i, and the deleted slot holds the
    absence marker 0: row k - 1 of ``build_all_maps(p)``.
    """
    order_exponent(p)
    if not 1 <= k <= p:
        raise IndexError(f"deleted point must lie in 1..{p}, got {k}")
    row = _map_rows(p, np.array([k], dtype=np.int32))
    _check_rows(p, k, row)
    return row[0]


@lru_cache(maxsize=1)
def build_all_maps(p: int) -> np.ndarray:
    """All p mappings at order p as one read-only ``(p, p)`` int32 table.

    Row k - 1 is ``build_map(p, k)``.  The rows are built and validated
    in blocks of about ``_BLOCK_CELLS`` cells, and only the last order
    asked for is kept: 4 * p**2 bytes.
    """
    order_exponent(p)
    tables = np.empty((p, p), dtype=np.int32)
    step = _block_rows(p)
    for start in range(0, p, step):
        ks = np.arange(start + 1, min(start + step, p) + 1, dtype=np.int32)
        rows = _map_rows(p, ks)
        _check_rows(p, start + 1, rows)
        tables[start : start + ks.size] = rows
    tables.setflags(write=False)
    return tables


def extend_sigma_p1(p: int) -> np.ndarray:
    """The point-1 deletion mapping extended to a permutation by fixing point 1.

    Slot i - 1 holds the image of point i.
    """
    order_exponent(p)
    if p < 8:
        raise ValueError(f"extend_sigma_p1 requires p >= 8, got {p}")
    perm = build_map(p, 1)
    perm[0] = 1
    return perm


def sigma_table_tsv(p: int) -> str:
    """Tab-separated table, rows = point, columns = deleted point, 'X' at the hole.

    The row blocks are column blocks of ``build_all_maps(p)``, whose
    absence marker 0 at the hole is the code of 'X'.
    """
    tables = build_all_maps(p)
    return _text_grid(
        p,
        lambda rows: tables[:, rows].T,
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

    Parts (a)-(c) are masked row-block scans of the map table
    (``weight_matrix._first_cell``), O(p) per deletion.  So is (d): under each
    deletion only the points at distance p/2 and the preimages of the
    images at distance p/2 can fail (``_lemma2_d``), so the whole check
    is O(p**2), and ``checked`` still counts every admissible pair.
    """
    order_exponent(p)
    if p < 8:
        raise ValueError(f"check_lemma2 requires p >= 8, got {p}")
    h = p // 2
    cols = build_all_maps(p)
    points = np.arange(1, p + 1, dtype=np.int32)
    low = points[:h]

    # (a) column halving, rows k <= p/2, columns i
    def halving(ks):
        k = points[ks, None]
        bad = cols[ks] != cols[ks.start + h : ks.stop + h]
        return bad & (points != k) & (points != k + h)

    # (b) half-shift equivariance, rows k, columns i <= p/2
    def shift(ks):
        k = points[ks, None]
        return (cols[ks, h:] != cols[ks, :h] - h) & (low != k) & (low + h != k)

    # (c) distance-p/2 detection under deletion of an endpoint, rows i, columns j
    def detection(ks):
        i, t = points[ks, None], cols[ks]
        plus_bad = (points == i + h) != (t == i + h)
        minus_bad = (points == i - h) != (t == i - h)
        return (plus_bad | minus_bad) & (points != i)

    counterexample = None
    if (cell := _first_cell(h, p, halving)) is not None:
        k, i = cell
        counterexample = (k + 1, i + 1, 0, int(cols[k, i]), int(cols[k + h, i]))
    elif (cell := _first_cell(p, h, shift)) is not None:
        k, i = cell
        counterexample = (k + 1, i + h + 1, 0, int(cols[k, i + h]), int(cols[k, i]) - h)
    elif (cell := _first_cell(p, p, detection)) is not None:
        i, j = cell
        counterexample = (i + 1, i + 1, j + 1, int(cols[i, j]), j + 1)

    # (d) distance-p/2 preservation under every deletion
    if counterexample is None:
        counterexample = _lemma2_d(p, cols)

    return VerificationReport(
        check_name="lemma2",
        order=p,
        counterexample=counterexample,
        # admissible pairs of (a), (b), (c) and (d)
        checked_count=h * (p - 2) + p * (h - 1) + p * (p - 1) + p * (p - 1) ** 2,
    )


def _lemma2_d(p: int, cols) -> Optional[tuple]:
    """First counterexample to lemma 2 (d) over the map table ``cols``, or None.

    Under the deletion of k, the pair (i, j) can fail only where j - i or
    image(i) - image(j) is +-p/2.  For each i those are the four columns
    i +- p/2 and the preimages of image(i) -+ p/2, read through the
    inverse table, so each deletion costs O(p).  The rows must be
    bijections, as ``build_all_maps`` checks.  The report is that of the
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
