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
checked to be a bijection onto the points other than k where it is built,
the one place a table is validated, and only the last order's table is
cached (4 * p**2 bytes).  ``build_map`` computes one row in O(p) without
the table.

``check_lemma2`` checks each of the four parts of lemma 2 with one masked
row-block scan of that table; part (d) pairs each point with its partner
at distance p/2 in the same row.

``_deletion_sweep`` is the one check that every mapping carries one
matrix onto another away from its deleted point, read through a list of
level tables.  ``hypomorphism_verifier.check_hypomorphisms`` runs it
once on the level matrices for theorem 1, with the identity table, and
for the tournament and the variant pair of the order, with their bit
tables; ``verify_hypomorphic_by_sigma`` runs it on one digraph pair.
Each reads the table of ``build_all_maps`` itself.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from recon_census.report import VerificationReport
from recon_census.weight_matrix import (
    _first_cell,
    _points_int32,
    _row_blocks,
    _text_grid,
    order_exponent,
)

__all__ = [
    "build_all_maps",
    "build_map",
    "check_lemma2",
    "extend_sigma_p1",
    "sigma",
    "sigma_reference",
    "sigma_table_tsv",
    "sigma_tsv_blocks",
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
    k, i = np.broadcast_arrays(_points_int32(k, p, "points"), _points_int32(i, p, "points"))
    if np.any(i == k):
        raise ValueError("mapping is undefined at the deleted point")
    return _sigma_closed_form(p, k, i)


def _sigma_closed_form(p: int, k: np.ndarray, i: np.ndarray) -> np.ndarray:
    """``sigma_values`` without its checks; int32 k and i, any value where i = k.

    Branch-free int32 bit operations.  With a = i - 1, b = k - 1 and
    d = a ^ b, the mask d ^ (d - 1) holds the bits through the lowest one
    in which a and b differ, where the fold stops.  The image is
    ((a ^ (p - 1) ^ mask) & ~3) + 1 + LOW[b & 3, a & 3]: a's own bits
    from bit 2 up to the stopping level, its complemented bits above it
    (the half orders added on the way down), and the order-4 residue.
    LOW[b, a] is ``_SIGMA4[b, a] - 1`` where the low residues differ (the
    fold reached order 4) and a where they agree (it stopped above).  Its
    sixteen 2-bit entries are packed into one int32 word, entry (b, a) at
    bit 2 * (4 * b + a), and read with one shift and mask per query, so
    no index array is widened and there is no ``where`` or gather.  The
    word is derived from ``_SIGMA4`` on every call, which keeps that the
    one order-4 table.
    """
    r = np.arange(4, dtype=np.int32)
    low = _SIGMA4 - 1
    low[r, r] = r
    word = np.bitwise_or.reduce(low.ravel() << np.arange(0, 32, 2, dtype=np.int32))
    a = np.subtract(i, 1, dtype=np.int32)
    b = np.subtract(k, 1, dtype=np.int32)
    t = a ^ b
    t ^= t - 1
    t ^= a
    t ^= p - 1
    t &= ~3
    t += 1
    b &= 3
    b <<= 3
    a &= 3
    a <<= 1
    residue = word >> (b | a)
    residue &= 3
    t += residue
    return t


def _map_rows(p: int, ks: np.ndarray) -> np.ndarray:
    """Table rows of the maps deleting the points ``ks``: 1-based images, 0 at the hole."""
    points = np.arange(1, p + 1, dtype=np.int32)
    rows = _sigma_closed_form(p, ks[:, None], points)
    rows[np.arange(ks.size), ks - 1] = 0
    return rows


def _check_rows(p: int, first: int, rows: np.ndarray) -> None:
    """Raise ValueError unless each row is the table of a deletion map.

    Row r must delete the point ``first + r``: 0 in its slot, and the
    other slots a bijection onto the p - 1 other points.  With the hole
    filled by k, a row is such a table exactly when it sorts to 1..p: one
    int32 sort per block of rows, in place on one copy of the block.
    """
    n = rows.shape[0]
    ks = np.arange(first, first + n, dtype=np.int32)
    if rows.min() < 0 or rows.max() > p:
        raise ValueError(f"images must lie in 1..{p}")
    holes = (np.arange(n), ks - 1)
    marked = rows[holes] != 0
    if marked.any():
        k = int(ks[np.argmax(marked)])
        raise ValueError(f"map {k}: the deleted slot must hold the absence marker 0")
    filled = rows.copy()
    filled[holes] = ks
    filled.sort(axis=1)
    bad = np.nonzero((filled != np.arange(1, p + 1, dtype=np.int32)).any(axis=1))[0]
    if bad.size:
        k = int(ks[bad[0]])
        raise ValueError(f"map {k} is not a bijection onto the points other than {k}")


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
    one ``weight_matrix._row_blocks`` block at a time, and only the last
    order asked for is kept: 4 * p**2 bytes.
    """
    order_exponent(p)
    tables = np.empty((p, p), dtype=np.int32)
    for rows in _row_blocks(p, p):
        ks = np.arange(rows.start + 1, rows.stop + 1, dtype=np.int32)
        block = _map_rows(p, ks)
        _check_rows(p, rows.start + 1, block)
        tables[rows] = block
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


def sigma_tsv_blocks(p: int) -> Iterator[str]:
    """Tab-separated table, rows = point, columns = deleted point, 'X' at
    the hole, one ``weight_matrix._text_grid`` block at a time.

    The row blocks are column blocks of ``build_all_maps(p)``, built when
    this is called, whose absence marker 0 at the hole is the code of 'X'.
    """
    tables = build_all_maps(p)
    return _text_grid(
        p,
        lambda rows: tables[:, rows].T,
        ["X", *map(str, range(1, p + 1))],
        "\t",
    )


def sigma_table_tsv(p: int) -> str:
    """The whole text of ``sigma_tsv_blocks(p)``."""
    return "".join(sigma_tsv_blocks(p))


def check_lemma2(p: int) -> VerificationReport:
    """Exhaustively verify the four mapping identities at order p >= 8.

    (a) deleting k and k + p/2 gives the same images away from both;
    (b) shifting the queried point by p/2 shifts its image by -p/2;
    (c) the image of j under the map deleting i lands at i +- p/2 exactly
    when j = i +- p/2, with matching sign; (d) under any deletion, image
    pairs differ by p/2 exactly when the points do, with the difference
    reversed in orientation.

    Each part is one masked row-block scan of the map table
    (``weight_matrix._first_cell``), O(p) per deletion.  For (d) each cell
    compares a point's image with that of its partner at distance p/2
    (``_lemma2_d``), so the whole check is O(p**2), and ``checked`` still
    counts every admissible pair.  On bijective rows (d) follows from (b)
    and (c), but it keeps its own scan and counterexample.
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

    Let partner(i) = ((i - 1) XOR p/2) + 1, the point at distance p/2
    from i.  Under the deletion of k, (i, j) can fail only at j = partner(i)
    or at the preimage of partner(image(i)), so every pair holds exactly
    when image(i) - image(partner(i)) = partner(i) - i for each i other
    than k and partner(k), and partner(k) is fixed: one ``_first_cell``
    scan over (k, i), O(p**2).  The rows must be bijections, as
    ``build_all_maps`` checks.  The report is that of the full-matrix form
    the test suite keeps: the first failing pair in row-major order.
    """
    points = np.arange(1, p + 1, dtype=np.int32)
    partner = ((points - 1) ^ (p // 2)) + 1

    def unmatched(ks):
        k, t = points[ks, None], cols[ks]
        kept = (points != k) & (partner != k)
        bad = t - t[:, partner - 1] != partner - points
        return (bad & kept) | ((partner == k) & (t != points))

    if (cell := _first_cell(p, p, unmatched)) is None:
        return None
    k, i = cell
    t = cols[k]
    image_diff = t[i] - t
    point_diff = points - (i + 1)
    candidates = (points == partner[i]) | (t == partner[t[i] - 1])
    j = int(np.argmax(candidates & (image_diff != point_diff) & (points != k + 1)))
    return (k + 1, i + 1, j + 1, int(image_diff[j]), int(point_diff[j]))


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
    a: np.ndarray, b: np.ndarray, tables, luts
) -> tuple[list[Optional[tuple]], int]:
    """Does each deletion map carry the p x p level matrix a onto b, read
    through each level table of ``luts``?

    ``tables[k-1]`` holds the 1-based images of the map deleting k (its
    deleted slot is ignored).  A level table is an array that a level
    array indexes directly, as numpy indexes (a negative level counted
    from the end).  Returns, per level table ``lut``, the first
    (k, i, j, lut[a[i, j]], lut[b[image(i), image(j)]]) with the two
    values unequal, in k order and then row-major (i, j), or None; and the
    p * (p-1)**2 triples checked for each table.

    One buffer ``rhs`` holds b[idx][:, idx] for the 0-based table ``idx``
    of the current deletion.  Deletions are visited in ``_gray_slots``
    order, and between two of them only the rows and columns whose index
    changed are gathered again, so the gathers cost O(p**2 log p) for
    the order's own tables (and stay correct for any tables).  Row and
    column k of ``rhs`` are overwritten with those of a, so one full
    level comparison per k checks every pair away from k for every
    table: equal levels read as equal values.  That comparison is one
    equality of the two grids read as 8-byte words (a and b share one
    dtype, and p**2 bytes are a multiple of 8 at every p >= 4).  Only at
    a deletion whose levels differ does each table read the differing
    cells, compared level by level one row block at a time and only
    until it finds its first, and only while it has no counterexample
    below k; a deletion that no table needs is not compared.  Two levels
    may read as one value, so a deletion can fail one table and pass
    another.  The per-deletion block copy this replaces is kept in the
    test suite as its oracle.
    """
    if a.dtype != b.dtype:
        raise ValueError(f"level matrices differ in dtype: {a.dtype} vs {b.dtype}")
    p = a.shape[0]
    a_words = a.reshape(-1).view(np.uint64)
    rhs = rhs_words = None
    # per slot, the row and column of b that rhs holds; -1 where it holds a's
    held = None
    best: list[Optional[tuple]] = [None] * len(luts)
    for s in _gray_slots(p):
        idx = np.subtract(tables[s], 1, dtype=np.int64)
        idx[s] = s
        if rhs is None:
            rhs = _permuted(b, idx)
            rhs_words = rhs.reshape(-1).view(np.uint64)
        else:
            d = np.flatnonzero(idx != held)
            rhs[d, :] = b.take(idx[d], axis=0).take(idx, axis=1)
            rhs[:, d] = b.take(idx[d], axis=1).take(idx, axis=0)
        rhs[s, :] = a[s, :]
        rhs[:, s] = a[:, s]
        open_tables = [t for t, cex in enumerate(best) if cex is None or s + 1 < cex[0]]
        if open_tables and not np.array_equal(a_words, rhs_words):
            ne = a != rhs
            rows = np.flatnonzero(ne.any(axis=1))
            # the rows whose levels differ, one row block at a time in
            # row-major order, until every open table has its first cell
            for block in _row_blocks(rows.size, p):
                if not open_tables:
                    break
                block_rows = rows[block]
                r, c = np.nonzero(ne[block_rows])
                r = block_rows[r]
                x, y = a[r, c], rhs[r, c]
                for t in open_tables[:]:
                    lhs, read = luts[t][x], luts[t][y]
                    differ = np.flatnonzero(lhs != read)
                    if differ.size:
                        f = differ[0]
                        best[t] = (
                            s + 1, int(r[f]) + 1, int(c[f]) + 1, int(lhs[f]), int(read[f])
                        )
                        open_tables.remove(t)
        idx[s] = -1
        held = idx
    return best, p * (p - 1) * (p - 1)
