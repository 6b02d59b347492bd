"""The point-deletion mappings: construction, evaluation, and identity checks.

For every order p = 2**n >= 4 and every deleted point k, a bijection on
{1..p} minus {k} is defined.  The order-4 mappings are one fixed table,
``blocks._SIGMA4`` in the numpy-free core, read on every call (``_sigma4``
views it as numpy); at larger orders the value is obtained by folding
both arguments into the half order (subtract p/2 from anything above
p/2), recursing, and adding p/2 back when the queried point lay in the
lower half.  Points whose fold collides with the deleted point's fold are
fixed.

``sigma`` is that folded evaluation (O(log p) per query), and
``sigma_values`` evaluates the fold in closed form on whole index arrays
(O(1) per query, from the lowest bit in which the two 0-based arguments
differ).  Both are derived simplifications, so the verbatim case-by-case
recursion is kept alongside as ``sigma_reference`` and the three are
cross-validated by the test suite (exhaustively at small orders), together
with the printed order 4/8/16 tables.

The mappings at order p are stored in one form only: the read-only
``(p, p)`` int32 table of ``build_all_maps``, whose row k - 1 holds the
1-based images under the deletion of k and 0 at the hole.  Its rows come
from ``_checked_map_blocks``, which checks each block of rows to be
bijections onto the points other than k as it builds them, and nothing
is cached: each call builds its 4 * p**2 bytes afresh.  ``build_map``
computes one row in O(p) without the table.  The text of ``export`` is
printed by the core (``blocks.sigma_tsv_blocks``), with no numpy;
``sigma_tsv_blocks`` here is its oracle: it runs the same checked blocks,
keeping none, and then prints each block of its rows from the closed
form.

``check_lemma2`` holds no table either: it reads the four parts of lemma
2, and whether each map is a bijection, off the binary digits of the
points, on the digit automaton of ``theorem1_automaton`` under a rule
that reads only the closed form (``_Lemma2Rule``), in O(log p) steps at
every order up to 2**30.  The test suite keeps its dense form, one masked
scan of the map table per part, as its oracle.

``_deletion_sweep`` is the one check that every mapping carries one
matrix onto another away from its deleted point, one block copy per
deletion.  Its two callers, each reading the table of ``build_all_maps``
itself, are library routes that the command line does not run:
``hypomorphism_verifier.check_theorem1`` runs it on the dense level
matrices, and ``iso_engine.verify_hypomorphic_by_sigma`` on one digraph
pair.  The test suite holds the digit automaton to it.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from recon_census import blocks
from recon_census.blocks import _bijection_error, _read_residues, _residue_word
from recon_census.report import VerificationReport
from recon_census.weight_matrix import (
    _check_integers,
    _int32_order,
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

def _sigma4() -> np.ndarray:
    """``blocks._SIGMA4``, the one order-4 table, as a read-only (4, 4)
    int8 view, taken on every read: [k - 1, i - 1] is the image of point i
    when point k is deleted, 0 at the hole."""
    return np.frombuffer(blocks._SIGMA4, dtype=np.int8).reshape(4, 4)


def _check_args(p: int, k: int, i: int) -> None:
    order_exponent(p)
    if not 1 <= k <= p:
        raise IndexError(f"deleted point must lie in 1..{p}, got {k}")
    if not 1 <= i <= p:
        raise IndexError(f"point must lie in 1..{p}, got {i}")
    _check_integers("point", k, i)
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
    return int(_sigma4()[k - 1, i - 1]) + shift


def sigma_reference(p: int, k: int, i: int) -> int:
    """Verbatim case-by-case recursion; cross-check oracle for ``sigma``."""
    _check_args(p, k, i)
    if p == 4:
        return int(_sigma4()[k - 1, i - 1])
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
    _int32_order(p)
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
    LOW is the residue table of ``_SIGMA4``.  Its sixteen 2-bit entries
    are packed into one int32 word, entry (b, a) at bit 2 * (4 * b + a),
    and read with one shift and mask per query, so no index array is
    widened and there is no ``where`` or gather.  The word is the core's
    (``blocks._residue_word``), derived on every call, which keeps
    ``_SIGMA4`` the one order-4 table.
    """
    word = np.int32(_residue_word())
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
        raise _bijection_error(int(ks[bad[0]]))


def build_map(p: int, k: int) -> np.ndarray:
    """Table of the order-p mapping deleting point k, in O(p).

    Slot i - 1 holds the image of point i, and the deleted slot holds the
    absence marker 0: row k - 1 of ``build_all_maps(p)``.
    """
    order_exponent(p)
    if not 1 <= k <= p:
        raise IndexError(f"deleted point must lie in 1..{p}, got {k}")
    _check_integers("deleted point", k)
    row = _map_rows(p, np.array([k], dtype=np.int32))
    _check_rows(p, k, row)
    return row[0]


def _checked_map_blocks(p: int) -> Iterator[tuple[slice, np.ndarray]]:
    """Each block of the map table, as its slice of deleted points k - 1
    and its rows (``_map_rows``), checked (``_check_rows``) before it is
    yielded.  A block counts 16 bytes a cell, for the int32 temporaries of
    ``_sigma_closed_form`` and the sort."""
    for rows in _row_blocks(p, 16 * p):
        ks = np.arange(rows.start + 1, rows.stop + 1, dtype=np.int32)
        block = _map_rows(p, ks)
        _check_rows(p, rows.start + 1, block)
        yield rows, block


def build_all_maps(p: int) -> np.ndarray:
    """All p mappings at order p as one read-only ``(p, p)`` int32 table.

    Row k - 1 is ``build_map(p, k)``.  The rows are built and validated
    one ``_checked_map_blocks`` block at a time, on every call:
    4 * p**2 bytes.
    """
    order_exponent(p)
    tables = np.empty((p, p), dtype=np.int32)
    for rows, block in _checked_map_blocks(p):
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
    the hole, one ``weight_matrix._text_grid`` block at a time, with no
    p x p table: the numpy oracle of ``blocks.sigma_tsv_blocks``, the text
    of ``export``.

    Every map row is first checked, one ``_checked_map_blocks`` block at a
    time and kept nowhere, when this is called, so a bad map raises
    before any text is drawn.  Then each block of text rows i is printed
    straight from ``_sigma_closed_form(p, k, i)`` over all deleted points
    k, with the absence marker 0, the code of 'X', at the hole k = i.
    Besides the text, the memory is a few times ``_BLOCK_CELLS`` bytes at
    every order.
    """
    order_exponent(p)
    for _ in _checked_map_blocks(p):
        pass
    points = np.arange(1, p + 1, dtype=np.int32)

    def codes(rows: slice) -> np.ndarray:
        images = _sigma_closed_form(p, points, points[rows, None])
        np.fill_diagonal(images[:, rows.start :], 0)
        return images

    return _text_grid(p, codes, ["X", *map(str, range(1, p + 1))], "\t")


def sigma_table_tsv(p: int) -> str:
    """The whole text of ``sigma_tsv_blocks(p)``."""
    return "".join(sigma_tsv_blocks(p))


class _Lemma2Rule:
    """Lemma 2 and the bijection test of its maps, as a rule of the digit
    automaton (``theorem1_automaton._walk``) at order p >= 8.

    The letters are the digits of (a, b, c) = (i - 1, k - 1, j - 1), and
    the images are read off ``_sigma_closed_form``: sigma_k(i) - 1 keeps
    the bits of a through the lowest bit where a and b differ and
    complements those above it, and its low two bits are the residue table
    that ``_sigma_closed_form`` reads out of ``_SIGMA4`` (``self.low``).
    Every test compares two points or images at a difference of 0 or
    +-p/2, and a difference of p/2 changes only the top digit.  So a state
    below the top holds five bits: whether a != b and c != b have been
    seen (bits 0 and 1), and whether a = c, sigma_k(i) = sigma_k(j) and
    sigma_k(j) = b have held on every digit read (bits 2 to 4).  The top
    layer reads its digits against them and replaces them with one bit
    per test, set where it fails: the bijection test (bit 0), then parts
    (a) to (d) (bits 1 to 4), as ``check_lemma2`` states them.
    """

    def __init__(self, p: int):
        self.top = order_exponent(p) - 3  # the block bit of the top digit
        self.low = np.array(_read_residues())

    def residue(self, letters: np.ndarray) -> np.ndarray:
        a, b, c = letters
        sa, sc = self.low[b, a], self.low[b, c]
        code = (a != b) | (c != b) << 1 | (a == c) << 2 | (sa == sc) << 3 | (sc == b) << 4
        return code[None, :]

    def block(self, states: np.ndarray, x: int, letters: np.ndarray) -> np.ndarray:
        s = states[:, None]
        a, b, c = letters
        seen_a, seen_c = s & 1, s >> 1 & 1
        # the image digits: sigma complements those above the first difference
        sa, sc = a ^ seen_a, c ^ seen_c
        if x < self.top:
            equal = (a == c) | (sa == sc) << 1 | (sc == b) << 2
            return seen_a | a ^ b | (seen_c | c ^ b) << 1 | (s >> 2 & equal) << 2
        a_kept, c_kept = seen_a | a ^ b, seen_c | c ^ b  # i != k, j != k
        # equal below the top: a and c, their images, c's image and b; two
        # such values differ by +-p/2 where their top digits differ, with
        # the sign of the first one's top digit
        points, images, image_b = (s >> t & 1 == 1 for t in (2, 3, 4))
        bijection = c_kept & image_b & (sc == b) | (
            a_kept & c_kept & ~(points & (a == c)) & images & (sa == sc)
        )
        # (a) and (b) hold on every state of this form.  (a) sigma_b(a) =
        # sigma_{b+h}(a) for b < h, a not b or b + h (seen_a): b + h has
        # b's digits below the top, where a first differs from both, so
        # the two images agree below the top, and at it that of b + h
        # reads a ^ seen_a too
        far = a ^ seen_a
        part_a = (b == 0) & (seen_a == 1) & (sa != far)
        # (b) sigma_b(a + h) = sigma_b(a) - h for a < h, a and a + h not b:
        # the two images agree below the top, and at the top that of a + h
        # reads 1 ^ seen_a
        shifted = 1 ^ seen_a
        part_b = (a == 0) & (seen_a == 1) & ((sa != 1) | (shifted != 0))
        # (c) c = b +- h exactly when sigma_b(c) = b +- h
        part_c = c_kept & ((seen_c == 0) != (image_b & (sc != b)))
        # (d) c - a = +-h exactly when sigma(a) - sigma(c) = +-h, same sign
        part_d = a_kept & c_kept & (
            ((points & (c > a)) != (images & (sa > sc)))
            | ((points & (a > c)) != (images & (sc > sa)))
        )
        out = bijection.astype(np.int64)
        for t, part in enumerate((part_a, part_b, part_c, part_d), 1):
            out |= part << t
        return out

    def final(self, states: np.ndarray) -> list[np.ndarray]:
        """Where each test fails: the bijection test, then (a) to (d)."""
        return [states >> t & 1 == 1 for t in range(5)]


def _lemma2_failure(p: int) -> Optional[tuple[int, int, int, int]]:
    """The first failing test of ``_Lemma2Rule`` at order p, 0 for the
    bijection test and 1 to 4 for parts (a) to (d), and its first (k, i, j)
    in k order, then i, then j (a point that the test does not read is 1);
    None where every test holds.  One walk, and one trace for a failure."""
    # imported here to avoid a module cycle with the digit automaton
    from recon_census.theorem1_automaton import _first_failure, _walk

    layers, final, *fails = _walk(p, _Lemma2Rule(p))
    for test, bad in enumerate(fails):
        if bad.any():
            return (test, *_first_failure(layers, final, bad))
    return None


def check_lemma2(p: int) -> VerificationReport:
    """Exhaustively verify the four mapping identities at order p >= 8.

    (a) deleting k and k + p/2 gives the same images away from both;
    (b) shifting the queried point by p/2 shifts its image by -p/2;
    (c) the image of j under the map deleting i lands at i +- p/2 exactly
    when j = i +- p/2, with matching sign; (d) under any deletion, image
    pairs differ by p/2 exactly when the points do, with the difference
    reversed in orientation.

    The maps are read through their closed form on the digit automaton
    (``_Lemma2Rule``), with no map table: O(log p) steps of a few dozen
    states, at every order up to 2**30 (``sigma_values``' reach).  A map
    that is not a bijection raises ``build_all_maps``' ValueError for the
    first such k before any part is read.  Otherwise the report is that of
    one masked scan per part over the map table, kept as the test suite's
    oracle: the first failing part's first counterexample, (k, i) in
    row-major order for (a) and (b), (k, j) for (c) and (k, i, j) for (d),
    and ``checked`` counts every admissible pair.
    """
    order_exponent(p)
    if p < 8:
        raise ValueError(f"check_lemma2 requires p >= 8, got {p}")
    _int32_order(p)
    h = p // 2
    counterexample = None
    failure = _lemma2_failure(p)
    if failure is not None:
        test, k, i, j = failure
        if test == 0:
            raise _bijection_error(k)
        if test == 1:
            counterexample = (k, i, 0, *(int(v) for v in sigma_values(p, [k, k + h], i)))
        elif test == 2:
            high, low = sigma_values(p, k, [i + h, i])
            counterexample = (k, i + h, 0, int(high), int(low) - h)
        elif test == 3:
            counterexample = (k, k, j, int(sigma_values(p, k, j)), j)
        else:
            si, sj = sigma_values(p, k, [i, j])
            counterexample = (k, i, j, int(si - sj), j - i)

    return VerificationReport(
        check_name="lemma2",
        order=p,
        counterexample=counterexample,
        # admissible pairs of (a), (b), (c) and (d)
        checked_count=h * (p - 2) + p * (h - 1) + p * (p - 1) + p * (p - 1) ** 2,
    )


def _permuted(x: np.ndarray, s) -> np.ndarray:
    """``x[np.ix_(s, s)]`` for 0-based indices ``s``, as two ``take`` gathers."""
    return x.take(s, axis=0).take(s, axis=1)


def _deletion_sweep(a: np.ndarray, b: np.ndarray, tables) -> Optional[tuple]:
    """Does each deletion map carry the p x p matrix a onto b?

    ``tables[k-1]`` holds the 1-based images of the map deleting k (its
    deleted slot is ignored).  Returns the first (k, i, j, a[i, j],
    b[image(i), image(j)]) with the two values unequal, in k order and
    then row-major (i, j), or None.  Each deletion is one block copy of b
    at its images (``_permuted``), compared away from row and column k:
    O(p**3) in all, stopping at the first failing deletion.
    """
    for s, images in enumerate(tables):
        idx = images - 1
        idx[s] = s
        ne = a != _permuted(b, idx)
        ne[s, :] = ne[:, s] = False
        if ne.any():
            i, j = divmod(int(ne.argmax()), len(a))
            return (s + 1, i + 1, j + 1, int(a[i, j]), int(b[idx[i], idx[j]]))
    return None
