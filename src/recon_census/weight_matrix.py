"""The paired antisymmetric weighted matrices and their structural identities.

Two matrix families (a plain and a starred variant) are defined for every
order p = 2**n with n >= 2.  The order-4 matrices are fixed tables; every
larger matrix is a (p/4 x p/4) array of 4x4 blocks whose content depends
only on the signed block offset d = (block column - block row):

* d odd: the negated base block, with +4 or -4 added on its diagonal
  according to d mod 4;
* d = y * 2**x with x >= 1 and y odd: the base block itself, with
  +(x + 4) or -(x + 4) added on its diagonal according to y mod 4.

The starred variant uses the opposite diagonal signs throughout.  Entries
are "levels" in [-(n+1), n+1]; the extreme levels +-(n+1) occur exactly at
the p positions (i, i +- p/2).

The block rule is written twice, and the test suite checks one form
against the other.  The class table (``_CLASS_TABLE``, evaluated with
numpy) holds one 4x4 block per class of offsets, d = 0 or (x, y mod 4),
for every order at once (order 2**n reaches 2n - 3 classes):
``entry_values`` gathers from it, ``build_dense`` is one such gather over
the whole grid (``entry_grid``), and ``_offset_case_table`` expands it to
one block per offset for the row-reading checks and for ``csv_blocks``,
which prints every row of the weighted CSV as one slice of four residue
templates, with no dense matrix.
``entry_at`` evaluates any single entry in constant time from the offset
decomposition, in plain Python, and serves as the oracle of both.  All
public indices are 1-based so that printed fixtures can be compared
positionally.
"""

from __future__ import annotations

import enum
from typing import Iterator, Optional

import numpy as np

from recon_census.report import VerificationReport

__all__ = [
    "DENSE_ORDER_LIMIT",
    "MatrixVariant",
    "ORACLE_ORDER_LIMIT",
    "WeightedMatrix",
    "build_dense",
    "check_lemma1",
    "csv_blocks",
    "entry_at",
    "entry_grid",
    "entry_values",
    "order_exponent",
]

#: Largest order materialized as a dense matrix (64 MiB of int8 per variant).
DENSE_ORDER_LIMIT = 8192

#: Largest order the command line accepts.  The entry oracle costs O(1)
#: memory per query at every order; only the per-offset rows (8p bytes per
#: variant) that lemma 1, theorem 2 and ``threshold_scores`` read are O(p):
#: about 550 MB of peak memory for lemma 1 and 580 MB for theorem 2 at 2**24.
ORACLE_ORDER_LIMIT = 1 << 24


class MatrixVariant(enum.Enum):
    """Selects one of the two matrix families."""

    PLAIN = "plain"
    STAR = "star"


_BASE = {
    MatrixVariant.PLAIN: np.array(
        [
            [0, 1, 2, 3],
            [-1, 0, 3, -2],
            [-2, -3, 0, 1],
            [-3, 2, -1, 0],
        ],
        dtype=np.int8,
    ),
    MatrixVariant.STAR: np.array(
        [
            [0, -2, -3, -1],
            [2, 0, 1, -3],
            [3, -1, 0, 2],
            [1, 3, -2, 0],
        ],
        dtype=np.int8,
    ),
}
for _b in _BASE.values():
    _b.setflags(write=False)


def order_exponent(p: int) -> int:
    """Return n for a valid order p = 2**n >= 4, else raise ValueError."""
    if not isinstance(p, (int, np.integer)):
        raise ValueError(f"order must be an integer, got {p!r}")
    p = int(p)
    if p < 4 or p & (p - 1):
        raise ValueError(f"order must be a power of two >= 4, got {p}")
    return p.bit_length() - 1


#: Largest order of the int32 index paths: ``entry_values``,
#: ``entry_grid`` and ``sigma_values``.
_INT32_ORDER_LIMIT = 1 << 30

#: Largest order whose block offsets the class table covers: it holds the
#: offsets +-2**x for x <= 30 (``_class_table``), and order 2**n reaches
#: x = n - 3.
_CLASS_TABLE_ORDER_LIMIT = 1 << 33

#: Cells per row block of a grid scan: bounds the scratch memory of the
#: text encoders, the map-table checks and the entry grids.
_BLOCK_CELLS = 1 << 18


def _row_blocks(rows: int, cols: int):
    """Row slices covering ``range(rows)``, each of about ``_BLOCK_CELLS`` cells."""
    step = max(1, _BLOCK_CELLS // max(1, cols))
    return (slice(s, min(s + step, rows)) for s in range(0, rows, step))


def _first_cell(rows: int, cols: int, bad) -> Optional[tuple[int, int]]:
    """First 0-based (r, c) of a rows x cols grid where ``bad`` holds, row-major.

    ``bad(block)`` returns the boolean mask of the rows in the slice
    ``block``; the grid is scanned one ``_row_blocks`` block at a time and
    the scan stops at the first block with a True cell.
    """
    for block in _row_blocks(rows, cols):
        mask = bad(block)
        if mask.any():
            r, c = divmod(int(np.argmax(mask)), cols)
            return block.start + r, c
    return None


def _text_grid(p: int, codes, tokens, sep: str) -> Iterator[str]:
    """Delimited text of a p x p integer grid, one newline-terminated line
    per row, yielded one row block at a time.

    ``codes(rows)`` returns the codes of the rows in the slice ``rows``;
    code c prints as the ASCII token ``tokens[c]``, and the cells of a row
    are joined by ``sep``.  Each token and its delimiter (``sep``, or a
    newline in the last column) sit zero-padded in one fixed-width byte
    string, so a block of rows is one gather of table items and one mask
    that drops the zero bytes; no cell costs a Python step.  A block counts
    each cell as the bytes it gathers plus its index, so the scratch
    memory, the block's text included, is a few times ``_BLOCK_CELLS``
    bytes at every order and token width.
    """
    inner, last = (_token_items(tokens, end) for end in (sep, "\n"))
    for rows in _text_blocks(p, inner):
        # C order, so that the gathered cells come out row by row
        block = np.asarray(codes(rows), dtype=np.intp, order="C")
        cells = inner[block]
        cells[:, -1] = last[block[:, -1]]
        yield _ascii_text(cells)


def _token_items(tokens, end: str) -> np.ndarray:
    """Each token followed by ``end``, zero-padded in one fixed-width byte
    string."""
    return np.array([token + end for token in tokens], dtype="S")


def _text_blocks(p: int, items: np.ndarray):
    """The row blocks of a text grid of p columns of ``items``: a cell
    counts the bytes it gathers plus its index."""
    return _row_blocks(p, p * (items.itemsize + 8))


def _ascii_text(items: np.ndarray) -> str:
    """The bytes of a C-ordered fixed-width byte-string array, zero padding
    dropped, as text."""
    flat = items.view(np.uint8).reshape(-1)
    return str(flat[flat != 0], "ascii")


def _check_levels(n: int, diagonal, antisymmetric: bool, levels) -> None:
    """The checks of a weighted matrix at order 2**n, in order: a zero
    ``diagonal``, ``antisymmetric``, and every one of ``levels`` in
    [-(n+1), n+1]; ValueError at the first that fails."""
    if np.any(diagonal != 0):
        raise ValueError("diagonal entries must be 0")
    if not antisymmetric:
        raise ValueError("matrix must be antisymmetric")
    if max(-int(levels.min()), int(levels.max())) > n + 1:
        raise ValueError(f"entries must lie in [-(n+1), n+1] = [{-(n+1)}, {n+1}]")


def _level_tokens(bound: int) -> list[str]:
    """The text of each level -bound..bound, indexed by level + bound."""
    return [str(v) for v in range(-bound, bound + 1)]


class _Frozen:
    """Refuses to rebind or delete an attribute: a subclass's ``__init__``
    sets its fields once, through ``object.__setattr__``, and they stay.
    ``functools.cached_property`` writes the instance ``__dict__`` directly,
    so it still caches."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class WeightedMatrix(_Frozen):
    """Immutable dense matrix of one variant at one order.

    ``entries`` is a read-only int8 array addressed 0-based; the public
    accessors are 1-based.  Construction validates the array (shape,
    dtype, zero diagonal, antisymmetry, level range) and makes it
    read-only.  Equal matrices compare equal; they are not hashable.
    """

    def __init__(self, order: int, variant: MatrixVariant, entries: np.ndarray) -> None:
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "entries", entries)
        n = order_exponent(self.order)
        e = self.entries
        if e.shape != (self.order, self.order) or e.dtype != np.int8:
            raise ValueError("entries must be an int8 array of shape (p, p)")
        # tile by tile, so that the transposed reads stay in cache
        t = 256
        tiles = ((i, j) for i in range(0, len(e), t) for j in range(i, len(e), t))
        antisymmetric = all(
            np.array_equal(e[i : i + t, j : j + t], -e[j : j + t, i : i + t].T)
            for i, j in tiles
        )
        _check_levels(n, np.diagonal(e), antisymmetric, e)
        e.setflags(write=False)

    @property
    def exponent(self) -> int:
        return order_exponent(self.order)

    def entry(self, i: int, j: int) -> int:
        """Entry at row i, column j (1-based)."""
        if not (1 <= i <= self.order and 1 <= j <= self.order):
            raise IndexError(f"indices must lie in 1..{self.order}, got ({i}, {j})")
        return int(self.entries[i - 1, j - 1])

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entry(i, j)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedMatrix):
            return NotImplemented
        return (
            self.order == other.order
            and self.variant == other.variant
            and np.array_equal(self.entries, other.entries)
        )

    def __repr__(self) -> str:
        return f"WeightedMatrix(order={self.order}, variant={self.variant.value})"

    def csv_blocks(self) -> Iterator[str]:
        """Rows as comma-separated signed integers, each newline-terminated,
        one ``_text_grid`` block at a time: the dense oracle of the
        module's ``csv_blocks``."""
        bound = self.exponent + 1
        tokens = _level_tokens(bound)
        return _text_grid(
            self.order, lambda rows: self.entries[rows] + bound, tokens, ","
        )

    def to_csv(self) -> str:
        return "".join(self.csv_blocks())


def build_dense(p: int, variant: MatrixVariant) -> WeightedMatrix:
    """The full matrix, gathered from the class table one row block at a
    time (``entry_grid``) and validated, on every call.

    Refuses orders above ``DENSE_ORDER_LIMIT`` (2**13) so that memory use
    stays predictable; ``entry_at`` serves larger orders.
    """
    order_exponent(p)
    if p > DENSE_ORDER_LIMIT:
        raise ValueError(
            f"dense construction refused for p={p} > limit {DENSE_ORDER_LIMIT}; "
            "use entry_at/entry_values instead"
        )
    return WeightedMatrix(p, variant, entry_grid(p, variant))


def _check_integers(what: str, *values) -> None:
    """ValueError unless each value is an ``int`` or a numpy integer, not a
    bool: the scalar twin of ``_points_int32``'s dtype check, made after
    the caller's range checks."""
    for x in values:
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
            raise ValueError(f"{what} must be an integer, got {x!r}")


def entry_at(p: int, variant: MatrixVariant, i: int, j: int) -> int:
    """Constant-time evaluation of entry (i, j) at order p (1-based).

    Computes the block offset of the position, its 2-adic decomposition,
    and combines the order-4 base entry with the sign and diagonal
    increment of the matching offset case.  Agrees with ``build_dense``
    entrywise (cross-validated by the acceptance suite).
    """
    order_exponent(p)
    if not (1 <= i <= p and 1 <= j <= p):
        raise IndexError(f"indices must lie in 1..{p}, got ({i}, {j})")
    _check_integers("index", i, j)
    r = (i - 1) & 3
    c = (j - 1) & 3
    base = int(_BASE[variant][r, c])
    d = ((j - 1) >> 2) - ((i - 1) >> 2)
    if d == 0:
        return base
    star = variant is MatrixVariant.STAR
    if d % 2 == 1:
        sign = 1 if d % 4 == 1 else -1
        if star:
            sign = -sign
        return -base + (4 * sign if r == c else 0)
    x = (d & -d).bit_length() - 1
    y = d >> x
    sign = 1 if y % 4 == 1 else -1
    if star:
        sign = -sign
    return base + ((x + 4) * sign if r == c else 0)


def _offset_case_values(variant: MatrixVariant, d, r, c) -> np.ndarray:
    """Closed-form value for block offset d and in-block residues r, c (0-based).

    An odd d is the case x = 0 of d = y * 2**x, with the base block negated.
    """
    base = _BASE[variant][r, c]
    safe = np.where(d == 0, 1, d)
    x = np.bitwise_count((safe & -safe) - 1).astype(np.int8)
    sign = np.where(((safe >> x) & 3) == 1, x + 4, -(x + 4))
    if variant is MatrixVariant.STAR:
        sign = -sign
    vals = np.where(d & 1, -base, base)
    return np.where((r == c) & (d != 0), vals + sign, vals)


def _offset_class(d: np.ndarray) -> np.ndarray:
    """Class-table row of each int32 block offset in ``d``, written over ``d``.

    As 32 unsigned bits, d ^ (d - 1) has m = x + 1 bits set (32 at d = 0),
    and bit m of d is set exactly when y = 3 mod 4: the row is 2m plus
    that bit, O(1) per offset at every order.
    """
    u = np.asarray(d).view(np.uint32)
    m = np.bitwise_count(u ^ (u - 1))
    np.right_shift(u, m, out=u)
    u &= 1
    u |= m << 1
    return u.view(np.int32)


def _class_table(variant: MatrixVariant) -> np.ndarray:
    """One block per ``_offset_class`` row, the closed form at the offsets 0
    and +-2**x (y = 1 and 3 mod 4); rows 0, 1 and 65 match no offset."""
    d = np.array([0] + [s << x for x in range(31) for s in (1, -1)], dtype=np.int32)
    table = np.zeros((66, 4, 4), dtype=np.int8)
    table[_offset_class(d.copy())] = _offset_case_values(
        variant, d[:, None, None], np.arange(4)[:, None], np.arange(4)
    )
    table.setflags(write=False)
    return table


_CLASS_TABLE = {variant: _class_table(variant) for variant in MatrixVariant}


def _reached_rows(p: int) -> np.ndarray:
    """Class-table rows of order p's block offsets: d = 0 first, then
    d = 2**x and d = -2**x (one bit apart) for x <= n - 3, 2n - 3 rows.
    ValueError above ``_CLASS_TABLE_ORDER_LIMIT``, whose offsets the class
    table does not hold."""
    n = order_exponent(p)
    if p > _CLASS_TABLE_ORDER_LIMIT:
        raise ValueError(
            "the class table holds block offsets up to +-2**30, so orders "
            f"up to 2**33, got {p}"
        )
    d = [0] + [s << x for x in range(n - 2) for s in (1, -1)]
    return _offset_class(np.array(d, dtype=np.int32))


def _offset_case_table(p: int, variant: MatrixVariant) -> np.ndarray:
    """The block of every offset at order p, indexed [d + p/4 - 1, r, c]:
    the offset table, a gather of class-table rows, O(p) and uncached."""
    d = np.arange(1 - p // 4, p // 4, dtype=np.int32)
    return _CLASS_TABLE[variant].take(_offset_class(d), axis=0)


def _checked_offset_table(p: int, variant: MatrixVariant) -> np.ndarray:
    """``_offset_case_table(p, variant)``, first checked as ``WeightedMatrix``
    checks the matrix, in its order and with its messages.  The checks are
    exact, since every (d, r, c) of the table occurs at order p and cells
    (i, j) and (j, i) sit at (d, r, c) and (-d, c, r)."""
    n = order_exponent(p)
    t = _offset_case_table(p, variant)
    antisymmetric = np.array_equal(t, -t[::-1].transpose(0, 2, 1))
    _check_levels(n, np.diagonal(t[p // 4 - 1]), antisymmetric, t)
    return t


def csv_blocks(p: int, variant: MatrixVariant) -> Iterator[str]:
    """The blocks of ``build_dense(p, variant).csv_blocks()``, printed from
    the offset table with no p x p matrix.

    Row i = 4B + r reads, at column j = 4B' + c, the offset table at
    (B' - B, r, c).  Laid end to end, the 2p - 4 cells ``t[:, r, :]`` are
    the residue-r template, and row i is its p cells from u0 = p - 4 - 4B
    on: one slice of the template's text, whose cell offsets are a cumsum
    of token lengths.  The table is read through ``_checked_offset_table``.

    The table is read and checked, and the four templates printed, when
    this is called, so a bad table raises before any text is drawn.  The
    rows come in ``_text_blocks``, as ``_text_grid``'s do, so the pieces
    are the dense writer's; besides the text, the work and memory are O(p).
    """
    t = _checked_offset_table(p, variant)
    bound = order_exponent(p) + 1
    items = _token_items(_level_tokens(bound), ",")
    # the four templates, one after another: (4, 2p - 4) codes
    codes = t.transpose(1, 0, 2).reshape(4, -1).astype(np.intp) + bound
    text = _ascii_text(items[codes])
    start = np.zeros(codes.size + 1, dtype=np.intp)
    np.cumsum(np.char.str_len(items)[codes], out=start[1:])

    def rows() -> Iterator[str]:
        for block in _text_blocks(p, items):
            i = np.arange(block.start, block.stop)
            first = (i & 3) * (2 * p - 4) + p - 4 - 4 * (i >> 2)
            # each slice ends before its last cell's comma
            spans = zip(start[first].tolist(), (start[first + p] - 1).tolist())
            yield "\n".join([text[a:b] for a, b in spans]) + "\n"

    return rows()


def _int32_order(p: int) -> None:
    """``order_exponent(p)``, and ValueError above ``_INT32_ORDER_LIMIT``,
    where a point or an offset could wrap in int32."""
    order_exponent(p)
    if p > _INT32_ORDER_LIMIT:
        raise ValueError(f"vectorized index paths take orders up to 2**30, got {p}")


def _points_int32(x, p: int, what: str) -> np.ndarray:
    """``x`` as an int32 array, IndexError unless each value lies in 1..p
    and then ValueError unless each is an integer, not a float or a bool.

    The range is checked before the narrowing, so a value beyond int32
    cannot wrap into range; an int32 array is neither copied nor converted.
    """
    x = np.asarray(x)
    if x.size:
        if x.min() < 1 or x.max() > p:
            raise IndexError(f"{what} must lie in 1..{p}")
        if x.dtype.kind not in "iu":
            raise ValueError(f"{what} must be integers, got {x.dtype}")
    return x.astype(np.int32, copy=False)


def entry_values(p: int, variant: MatrixVariant, i, j) -> np.ndarray:
    """Vectorized ``entry_at``: i and j are broadcast 1-based index arrays.

    Entries depend only on the class of the block offset and the in-block
    residues, so each query is one gather from the order-free class table:
    O(1) time and memory per query at every order up to
    ``_INT32_ORDER_LIMIT``.
    """
    _int32_order(p)
    a = _points_int32(i, p, "row indices") - 1
    b = _points_int32(j, p, "column indices") - 1
    key = _offset_class((b >> 2) - (a >> 2))
    key <<= 4
    key |= (a & 3) << 2 | b & 3
    return _CLASS_TABLE[variant].take(key)


def entry_grid(p: int, variant: MatrixVariant) -> np.ndarray:
    """The p x p grid of entries, evaluated one ``_row_blocks`` block at a time."""
    _int32_order(p)
    points = np.arange(1, p + 1, dtype=np.int32)
    out = np.empty((p, p), dtype=np.int8)
    for block in _row_blocks(p, p):
        out[block] = entry_values(p, variant, points[block, None], points[None, :])
    return out


def _nested_rows(table: np.ndarray) -> np.ndarray:
    """The central rows of an order-p offset table (``_offset_case_table``),
    which hold the two diagonal p/2 x p/2 quadrants.

    Both quadrants hold the blocks at offsets -(p/8-1)..p/8-1, exactly the
    offset range of the half-order matrix, and the residues line up because
    p/2 is a multiple of 4.  Row for row, these rows are therefore the
    half-order offset table exactly when the quadrants equal the half-order
    matrix entrywise.
    """
    q = (len(table) + 1) // 4  # p/8
    return table[q:-q]


def _first_class_mismatch(lhs, rhs, row_shift, col_shift, off_diagonal=False):
    """First (i, j, lhs, rhs) difference in row-major order over a quadrant.

    ``lhs`` and ``rhs`` hold one value per class of a p/2 x p/2 diagonal
    quadrant, indexed [d + p/8 - 1, r, c].  The class's positions run
    down a block diagonal, so a differing class maps back to its first
    position, in block row max(0, -d); the quadrant's corner is at
    (row_shift, col_shift).  ``off_diagonal`` skips the class d = 0,
    r = c, whose positions are the diagonal i = j.
    """
    neq = lhs != rhs
    if off_diagonal:
        np.fill_diagonal(neq[len(neq) // 2], False)
    if not neq.any():
        return None
    bad = np.argwhere(neq)
    row, r, c = bad.T
    d = row - len(neq) // 2
    block = np.maximum(0, -d)
    i = 4 * block + r
    j = 4 * (block + d) + c
    at = np.lexsort((j, i))[0]
    cls = tuple(bad[at])
    return (
        int(i[at]) + 1 + row_shift,
        int(j[at]) + 1 + col_shift,
        int(lhs[cls]),
        int(rhs[cls]),
    )


def check_lemma1(p: int) -> VerificationReport:
    """Verify the four structural identities at order p >= 8 in O(p).

    (a) both half-order quadrants (top-left, bottom-right) equal the
    half-order matrix entrywise; (b)/(c) for distinct i, j in 1..p/2 the
    entries at (i, j + p/2) and (i + p/2, j) are the entry at (i, j) times
    a sign: always -1 at p = 8, and -1 exactly when |j - i| = p/4 for
    p >= 16; (d) the extreme levels +-(n+1) sit
    exactly at column/row offsets of p/2.  Both variants are checked;
    the first violation in row-major order, if any, is reported.

    Every entry depends only on its block offset and residues, so each
    identity compares offset-table rows: a shift by p/2 moves the block
    offset by +-p/8, the sign of (b)/(c) is -1 exactly at offset +-p/16
    with r = c (everywhere at p = 8), and the extreme levels sit at
    offset +-p/8 with r = c.  ``checked`` counts positions, as the
    entry-grid form in the test suite does; the two give the same report.
    """
    n = order_exponent(p)
    if p < 8:
        raise ValueError(f"check_lemma1 requires p >= 8, got {p}")
    h, nb, nh = p // 2, p // 4, p // 8
    checked = 0
    counterexample = None

    for variant in (MatrixVariant.PLAIN, MatrixVariant.STAR):
        table = _offset_case_table(p, variant)
        quadrant = _nested_rows(table)

        # (a) nested copies: both diagonal quadrants are the same offset
        # rows, so the top-left compare decides the bottom-right one too
        checked += 2 * h * h
        if counterexample is None:
            hit = _first_class_mismatch(quadrant, _offset_case_table(h, variant), 0, 0)
            if hit is not None:
                counterexample = (0, *hit)

        # (b)/(c) half-shift sign pattern on off-diagonal pairs: the
        # shifted copies sit at offsets d + p/8 and d - p/8
        if p == 8:
            expected = -quadrant
        else:
            expected = quadrant.copy()
            for row in (nh - 1 - p // 16, nh - 1 + p // 16):
                np.fill_diagonal(expected[row], -np.diagonal(quadrant[row]))
        for shifted, row_shift, col_shift in (
            (table[nb:], 0, h),
            (table[: nb - 1], h, 0),
        ):
            checked += h * h - h
            if counterexample is None:
                hit = _first_class_mismatch(
                    shifted, expected, row_shift, col_shift, off_diagonal=True
                )
                if hit is not None:
                    counterexample = (0, *hit)

        # (d) extreme levels at offset p/2: block offset +-p/8 with r = c
        want_up = np.int8((1 if variant is MatrixVariant.PLAIN else -1) * (n + 1))
        checked += 2 * h
        if counterexample is None:
            for got, want, row_shift, col_shift in (
                (np.diagonal(table[nb + nh - 1]), want_up, 0, h),
                (np.diagonal(table[nb - nh - 1]), -want_up, h, 0),
            ):
                bad = np.nonzero(got != want)[0]
                if bad.size:
                    b = int(bad[0])
                    cell = (b + 1 + row_shift, b + 1 + col_shift)
                    counterexample = (0, *cell, int(got[b]), int(want))
                    break

    return VerificationReport(
        check_name="lemma1",
        order=p,
        counterexample=counterexample,
        checked_count=checked,
    )
