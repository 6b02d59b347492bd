"""The block rule without numpy: what every command needs before it knows its work.

This module imports nothing beyond the standard library, so the command
line parses its arguments, ``generate`` writes the weighted CSV and the
digraph6 of either digraph pair, ``deck`` writes its digraph6 cards and
``export`` the deletion-map table, with no numpy in the process.  It
holds:

* the order caps the command line and the library share, ``MatrixVariant``
  and ``order_exponent``;
* the order-4 base blocks (``_BASE``) and the block rule's closed form
  (``_offset_block``), which fills the one class table (``_CLASS_TABLE``:
  per variant, 66 rows of one 4x4 block each, as 16 int8 bytes a row),
  and the scalar offset class (``_offset_class``) that picks a row;
* the offset table of an order, checked as ``WeightedMatrix`` checks a
  matrix (``_checked_offset_rows``);
* the proper binary assignments, the twin level pairs (``_twin_levels``)
  and the tournament self-check (``_check_tournaments``);
* the writers: the weighted CSV (``csv_blocks``) and the digraph rows
  (``tournament_bits``, ``variant_bits``), each sliced from four residue
  templates, the digraph6 encoder (``digraph6_blocks``), and the deck of
  one digraph as digraph6 (``deck_digraph6``);
* the order-4 deletion maps (``_SIGMA4``), the one table of them, the
  residue word that the maps' closed form reads out of it
  (``_residue_word``), and the text of ``export`` (``sigma_tsv_blocks``).

Every matrix is block-Toeplitz: entry (4B + r, 4B' + c) is cell (r, c) of
the block at offset d = B' - B, and that block is the class-table row
``_offset_class(d)``.  So the 2p - 4 cells of residue r, offset by offset
from d = 1 - p/4 up, laid end to end are the residue-r template, and row
4B + r is its p cells from 4(p/4 - 1 - B) on.

The class table and ``_SIGMA4`` are read on every call, never cached, so
an edit of either reaches every reader, the numpy ones
(``weight_matrix._class_blocks``, ``deletion_maps._sigma4``) included.
"""

from __future__ import annotations

import binascii
import enum
import sys
from itertools import accumulate
from typing import Callable, Iterator

from recon_census.errors import ContradictionError

__all__ = [
    "BinaryAssignment",
    "CENSUS_ORDERS",
    "DECK_MATCH_ORDER_LIMIT",
    "DENSE_ORDER_LIMIT",
    "MatrixVariant",
    "ORACLE_ORDER_LIMIT",
    "assignment_from_mapping",
    "csv_blocks",
    "deck_digraph6",
    "digraph6_blocks",
    "hex_digraph6",
    "order_exponent",
    "sigma_tsv_blocks",
    "tournament_assignment",
    "tournament_bits",
    "variant_assignment",
    "variant_bits",
]

#: Largest order materialized as a dense matrix (64 MiB of int8 per variant).
DENSE_ORDER_LIMIT = 8192

#: Largest order the command line accepts.  The entry oracle costs O(1)
#: memory per query at every order; only the per-offset rows (8p bytes per
#: variant) that lemma 1, theorem 2 and ``threshold_scores`` read are O(p):
#: about 550 MB of peak memory for lemma 1 and 580 MB for theorem 2 at 2**24.
ORACLE_ORDER_LIMIT = 1 << 24

#: Largest order where deck matching's p**2 card-pair searches fit the budget.
DECK_MATCH_ORDER_LIMIT = 12

#: Orders where the census tabulates every proper assignment.
CENSUS_ORDERS = (8, 16)

#: Largest order whose block offsets the class table covers: it holds the
#: offsets +-2**x for x <= 30, and order 2**n reaches x = n - 3.
_CLASS_TABLE_ORDER_LIMIT = 1 << 33

#: Cells per row block of a grid scan: bounds the scratch memory of the
#: text encoders, the map-table checks and the entry grids.
_BLOCK_CELLS = 1 << 18


class MatrixVariant(enum.Enum):
    """Selects one of the two matrix families."""

    PLAIN = "plain"
    STAR = "star"


def order_exponent(p: int) -> int:
    """Return n for a valid order p = 2**n >= 4, else raise ValueError."""
    # a numpy integer can only be passed once numpy is loaded
    numpy = sys.modules.get("numpy")
    if not isinstance(p, int) and not (numpy and isinstance(p, numpy.integer)):
        raise ValueError(f"order must be an integer, got {p!r}")
    p = int(p)
    if p < 4 or p & (p - 1):
        raise ValueError(f"order must be a power of two >= 4, got {p}")
    return p.bit_length() - 1


def _row_blocks(rows: int, cols: int):
    """Row slices covering ``range(rows)``, each of about ``_BLOCK_CELLS`` cells."""
    step = max(1, _BLOCK_CELLS // max(1, cols))
    return (slice(s, min(s + step, rows)) for s in range(0, rows, step))


class _Frozen:
    """Refuses to rebind or delete an attribute: a subclass's ``__init__``
    sets its fields once, through ``object.__setattr__``, and they stay.
    ``functools.cached_property`` writes the instance ``__dict__`` directly,
    so it still caches."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


_BASE = {
    MatrixVariant.PLAIN: (
        (0, 1, 2, 3),
        (-1, 0, 3, -2),
        (-2, -3, 0, 1),
        (-3, 2, -1, 0),
    ),
    MatrixVariant.STAR: (
        (0, -2, -3, -1),
        (2, 0, 1, -3),
        (3, -1, 0, 2),
        (1, 3, -2, 0),
    ),
}


def _offset_block(variant: MatrixVariant, d: int) -> list[int]:
    """The closed form: the 16 cells, row-major, of the block at offset d.

    With d = y * 2**x, y odd: an odd d (x = 0) negates the base block,
    and any d != 0 adds +(x + 4) on the diagonal where y = 1 mod 4 and
    -(x + 4) where y = 3 mod 4; the starred variant takes the opposite
    diagonal signs.
    """
    cells = [v for row in _BASE[variant] for v in row]
    if d == 0:
        return cells
    x = (d & -d).bit_length() - 1
    step = x + 4 if (d >> x) & 3 == 1 else -(x + 4)
    if variant is MatrixVariant.STAR:
        step = -step
    sign = -1 if d & 1 else 1
    return [sign * v + (step if k % 5 == 0 else 0) for k, v in enumerate(cells)]


def _offset_class(d: int) -> int:
    """Class-table row of block offset d: 64 for d = 0; else, with m - 1
    the number of trailing zeros of d, 2m plus bit m of d, which is set
    exactly when the odd part y of d is 3 mod 4.  So the rows of d and -d
    differ in their lowest bit only."""
    if d == 0:
        return 64
    m = (d & -d).bit_length()
    return 2 * m | (d >> m) & 1


def _class_table(variant: MatrixVariant) -> bytes:
    """One block per ``_offset_class`` row, the closed form at the offsets 0
    and +-2**x (y = 1 and 3 mod 4), as int8 bytes; rows 0, 1 and 65 match
    no offset and stay 0."""
    table = bytearray(66 * 16)
    for d in (0, *(s << x for x in range(31) for s in (1, -1))):
        row = 16 * _offset_class(d)
        table[row : row + 16] = bytes(v & 0xFF for v in _offset_block(variant, d))
    return bytes(table)


_CLASS_TABLE = {variant: _class_table(variant) for variant in MatrixVariant}


def _cells(variant: MatrixVariant) -> memoryview:
    """The class table of ``variant`` as it is now: 66 * 16 signed cells,
    cell (r, c) of row k at 16k + 4r + c."""
    return memoryview(_CLASS_TABLE[variant]).cast("b")


def _reached_rows(p: int) -> tuple[int, ...]:
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
    return tuple(_offset_class(d) for d in (0, *(s << x for x in range(n - 2) for s in (1, -1))))


def _twin_row(rows: tuple[int, ...], row: int) -> int:
    """The row of the offsets -d for the ``rows`` row of d: the zero row is
    its own twin."""
    return row if row == rows[0] else row ^ 1


def _checked_offset_rows(p: int, variant: MatrixVariant) -> tuple[memoryview, list[int]]:
    """The class table of ``variant`` and the first cell of each offset's
    row, d = 1 - p/4 up to p/4 - 1: order p's offset table.

    It is first checked as ``WeightedMatrix`` checks the matrix, in its
    order and with its messages: a zero diagonal, antisymmetry (with
    int8's wrapping negation, as numpy compares), every level in
    [-(n+1), n+1].  The checks read the 2n - 3 reached rows, and are exact
    since each (d, r, c) of the table occurs at order p, where cells
    (i, j) and (j, i) sit at (d, r, c) and (-d, c, r).
    """
    n = order_exponent(p)
    rows = _reached_rows(p)
    cells = _cells(variant)
    zero = 16 * rows[0]
    if any(cells[zero + 5 * r] for r in range(4)):
        raise ValueError("diagonal entries must be 0")
    for row in rows:
        twin = 16 * _twin_row(rows, row)
        for k in range(16):
            if (cells[16 * row + k] + cells[twin + 4 * (k & 3) + (k >> 2)]) & 0xFF:
                raise ValueError("matrix must be antisymmetric")
    if max(abs(cells[16 * row + k]) for row in rows for k in range(16)) > n + 1:
        raise ValueError(f"entries must lie in [-(n+1), n+1] = [{-(n+1)}, {n+1}]")
    q = p // 4
    return cells, [16 * _offset_class(d) for d in range(1 - q, q)]


def _templates(p: int, variant: MatrixVariant, chunk: Callable) -> list[list[str]]:
    """Per residue r, the text of each offset of the checked offset table
    (``_checked_offset_rows``): ``chunk(cells)`` of the 4 cells (r, 0..3)
    of the offset's block, evaluated once per class row."""
    cells, starts = _checked_offset_rows(p, variant)
    out = []
    for r in range(4):
        text = {s: chunk(cells[s + 4 * r : s + 4 * r + 4]) for s in set(starts)}
        out.append([text[s] for s in starts])
    return out


def csv_blocks(p: int, variant: MatrixVariant) -> Iterator[str]:
    """The blocks of ``build_dense(p, variant).csv_blocks()``, printed from
    the offset table with no p x p matrix.

    Each residue template is the text of its 2p - 4 cells, every token
    followed by a comma, and row 4B + r is the text of its p cells: one
    slice, whose ends are the running lengths of the offsets' texts, less
    its last comma.  The table is read and checked, and the four templates
    printed, when this is called, so a bad table raises before any text is
    drawn.  The rows come in the dense writer's row blocks, so the pieces
    are its pieces; besides the text, the work and memory are O(p).
    """
    bound = order_exponent(p) + 1
    tokens = [f"{v}," for v in range(-bound, bound + 1)]
    chunks = _templates(p, variant, lambda four: "".join([tokens[v + bound] for v in four]))
    texts = ["".join(c) for c in chunks]
    starts = [[0, *accumulate(map(len, c))] for c in chunks]
    q = p // 4
    # as the dense writer counts a cell: its widest token's bytes and an index
    width = max(map(len, tokens)) + 8

    def rows() -> Iterator[str]:
        for block in _row_blocks(p, p * width):
            lines = []
            for i in range(block.start, block.stop):
                r, k = i & 3, q - 1 - (i >> 2)
                lines.append(texts[r][starts[r][k] : starts[r][k + q] - 1])
            yield "\n".join(lines) + "\n"

    return rows()


#: The order-4 deletion maps, the one table of them: int8 cell
#: 4(k - 1) + (i - 1) is the image of point i when point k is deleted, and
#: the hole holds 0.
_SIGMA4 = bytes((0, 4, 2, 3, 3, 0, 4, 1, 4, 1, 0, 2, 2, 3, 1, 0))


def _residue_word() -> int:
    """LOW packed into one int32 word, the word that
    ``deletion_maps._sigma_closed_form`` reads: LOW[b][a], the residue of
    sigma_k(i) - 1 for residues b of k - 1 and a of i - 1, is the
    ``_SIGMA4`` cell less 1 off the diagonal and a on it, at bit
    2 * (4b + a).  Each entry is shifted and ORed in 32 bits, so an entry
    outside 0..3, from an edited table, spills over its neighbours as int32
    arithmetic makes it.  Uncached."""
    cells = memoryview(_SIGMA4).cast("b")
    word = 0
    for x in range(16):
        b, a = divmod(x, 4)
        word |= (a if a == b else cells[x] - 1) << 2 * x & 0xFFFFFFFF
    return word - (word >> 31 << 32)


def _read_residues() -> tuple[tuple[int, ...], ...]:
    """LOW as the closed form reads it out of ``_residue_word``, indexed
    [b][a]: ``_SIGMA4``'s residues wherever its entries lie in 1..4."""
    word = _residue_word()
    return tuple(tuple(word >> 2 * (4 * b + a) & 3 for a in range(4)) for b in range(4))


def _bijection_error(k: int) -> ValueError:
    return ValueError(f"map {k} is not a bijection onto the points other than {k}")


def _checked_residues(p: int) -> tuple[tuple[int, ...], ...]:
    """``_read_residues()``, once every map of order p is checked to be a
    bijection onto the points other than k, in O(1).

    sigma_k(i) - 1 is the block (a ^ (p - 1) ^ mask) & ~3 plus LOW[b][a],
    for a = i - 1, b = k - 1 (read mod 4) and mask the bits through the
    lowest one in which they differ.  The points a != b mod 4 of block A
    land in block p/4 - 1 - A, and those a = b mod 4 one in each block but
    b's.  So every map is a bijection exactly when, for each b, LOW[b][a]
    over a != b is {0..3} less b and, from p = 8 on, where the second kind
    of point exists, LOW[b][b] = b.  Otherwise the first map that is not
    is that of k = b + 1 for the first bad b: ``build_all_maps``' error.
    """
    low = _read_residues()
    for b, row in enumerate(low):
        if sorted(row[:b] + row[b + 1 :]) != [v for v in range(4) if v != b] or (
            p >= 8 and row[b] != b
        ):
            raise _bijection_error(b + 1)
    return low


def sigma_tsv_blocks(p: int) -> Iterator[str]:
    """The text of ``export``: rows = point i, columns = deleted point k,
    the image sigma_k(i) tab-separated and 'X' at the hole, in the row
    blocks of ``deletion_maps.sigma_tsv_blocks``, its numpy oracle.

    The maps are checked when this is called (``_checked_residues``), so a
    bad map raises before any text is drawn.  Row a = i - 1 is one list of
    p tokens, filled by n + 2 extended-slice assignments and joined once:
    a column b != a mod 4 reads only b's residue, so each residue is one
    token every fourth column; a column b = a mod 4 reads the lowest bit t
    in which a and b differ, so each t >= 2 is one token every 2**(t + 1)
    columns; and the hole is 'X'.  No p x p table, and no Python step per
    cell.
    """
    n = order_exponent(p)
    low = _checked_residues(p)
    q = p // 4
    # as the numpy writer counts a cell: its widest token and delimiter
    # plus an index
    width = len(str(p)) + 9

    def rows() -> Iterator[str]:
        row = ["X"] * p
        for block in _row_blocks(p, p * width):
            lines = []
            for a in range(block.start, block.stop):
                r = a & 3
                far = (a ^ (p - 1)) & ~3
                for c in range(4):
                    if c != r:
                        row[c::4] = [str(far + 1 + low[c][r])] * q
                for t in range(2, n):
                    image = ((a ^ (p - 1) ^ ((2 << t) - 1)) & ~3) + 1 + low[r][r]
                    row[(a ^ 1 << t) & ((2 << t) - 1) :: 2 << t] = [str(image)] * (p >> t + 1)
                row[a] = "X"
                lines.append("\t".join(row))
            yield "\n".join(lines) + "\n"

    return rows()


class BinaryAssignment(_Frozen):
    """A proper assignment of bits to the nonzero levels of order exponent n.

    ``bits`` is aligned with ``level_order()``: levels 1..n+1 first, then
    -1..-(n+1).  Assignments are immutable, equal and hash equal by value.
    """

    def __init__(self, order_n: int, bits: tuple[int, ...]) -> None:
        object.__setattr__(self, "order_n", order_n)
        object.__setattr__(self, "bits", bits)
        m = 2 * (self.order_n + 1)
        if len(self.bits) != m:
            raise ValueError(f"expected {m} bits, got {len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.order_n, self.bits) == (other.order_n, other.bits)

    def __hash__(self) -> int:
        return hash((self.order_n, self.bits))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(order_n={self.order_n!r}, bits={self.bits!r})"

    def level_order(self) -> tuple[int, ...]:
        top = self.order_n + 1
        return tuple(range(1, top + 1)) + tuple(range(-1, -top - 1, -1))

    def value_for(self, level: int) -> int:
        top = self.order_n + 1
        if not 1 <= abs(level) <= top:
            raise ValueError(f"level {level} outside the domain +-1..+-{top}")
        return self.bits[level - 1] if level > 0 else self.bits[top - level - 1]

    @property
    def bit_string(self) -> str:
        return "".join(str(b) for b in self.bits)


def assignment_from_mapping(n: int, mapping) -> BinaryAssignment:
    """Build an assignment from a {level: bit} mapping covering every level."""
    top = n + 1
    levels = tuple(range(1, top + 1)) + tuple(range(-1, -top - 1, -1))
    missing = [v for v in levels if v not in mapping]
    if missing:
        raise ValueError(f"mapping must cover every nonzero level; missing {missing}")
    return BinaryAssignment(n, tuple(int(mapping[v]) for v in levels))


def tournament_assignment(n: int) -> BinaryAssignment:
    """Positive levels to 1, negative levels to 0 (yields tournaments)."""
    top = n + 1
    return BinaryAssignment(n, (1,) * top + (0,) * top)


def variant_assignment(n: int) -> BinaryAssignment:
    """1, -1 and levels >= 3 to 1; 2, -2 and levels <= -3 to 0."""
    mapping = {}
    for v in range(1, n + 2):
        mapping[v] = 0 if v == 2 else 1
        mapping[-v] = 1 if v == 1 else 0
    return assignment_from_mapping(n, mapping)


def _level_bits(a: BinaryAssignment) -> dict[int, int]:
    """The bit of each level of ``a``; level 0, off the diagonal no arc,
    gets 0."""
    return {0: 0, **dict(zip(a.level_order(), a.bits))}


def _twin_levels(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The level pairs (u, v) of each off-diagonal cell (i, j) and its twin
    (j, i) at order p, both variants, as two tuples read off the class
    table's ``_reached_rows`` on every call: the twin of residues (r, c) in
    the row of offset d is (c, r) in the row of -d (``_twin_row``).  A
    nonzero level on the zero row's diagonal (a loop) pairs with itself.
    An assignment yields a pair of tournaments exactly when it gives u and
    v unlike bits in every pair.
    """
    rows = _reached_rows(p)
    u, v = [], []
    for variant in (MatrixVariant.PLAIN, MatrixVariant.STAR):
        cells = _cells(variant)
        for row in rows:
            twin = 16 * _twin_row(rows, row)
            for k in range(16):
                level = cells[16 * row + k]
                # the zero row's diagonal cells at level 0 pair with nothing
                if row == rows[0] and k % 5 == 0 and level == 0:
                    continue
                u.append(level)
                v.append(cells[twin + 4 * (k & 3) + (k >> 2)])
    return tuple(u), tuple(v)


def _check_tournaments(p: int) -> None:
    """ContradictionError unless the tournament assignment of order p
    yields a pair of tournaments: unlike bits in every ``_twin_levels``
    pair, read off the class table with no matrix or digraph.  A level
    outside +-(n+1) has no bit, so it fails."""
    bits = _level_bits(tournament_assignment(order_exponent(p)))
    if any(
        u not in bits or v not in bits or bits[u] == bits[v]
        for u, v in zip(*_twin_levels(p))
    ):
        raise ContradictionError("canonical pair failed the tournament check")


#: The adjacency rows of a p-point digraph as hex digits: ``rows(first,
#: last)`` is rows first..last - 1 laid end to end, row-major, each cell one
#: bit, four to a digit (p/4 digits a row).
HexRows = Callable[[int, int], str]


def _template_bits(p: int, variant: MatrixVariant, a: BinaryAssignment) -> HexRows:
    """The adjacency rows of ``apply_assignment(build_dense(p, variant), a)``
    as hex digits, sliced from four bit templates with no p x p matrix.

    Each template cell is its level's bit under ``a``, so an offset's 4
    cells are one hex digit and row 4B + r is the p/4 digits of its
    template from p/4 - 1 - B on.  The offset table is checked
    (``_checked_offset_rows``) and the templates, O(p) digits, are built
    when this is called.
    """
    bits = _level_bits(a)

    def digit(four) -> str:
        return "%x" % sum(bits[v] << 3 - c for c, v in enumerate(four))

    templates = ["".join(t) for t in _templates(p, variant, digit)]
    q = p // 4

    def rows(first: int, last: int) -> str:
        starts = ((i & 3, q - 1 - (i >> 2)) for i in range(first, last))
        return "".join([templates[r][k : k + q] for r, k in starts])

    return rows


def tournament_bits(p: int, variant: MatrixVariant) -> HexRows:
    """The rows of the canonical tournament pair's ``variant`` digraph
    (``_template_bits``), then ``_check_tournaments``."""
    rows = _template_bits(p, variant, tournament_assignment(order_exponent(p)))
    _check_tournaments(p)
    return rows


def variant_bits(p: int, variant: MatrixVariant) -> HexRows:
    """The rows of the variant pair's ``variant`` digraph at order p >= 8
    (``_template_bits``)."""
    n = order_exponent(p)
    if p < 8:
        raise ValueError(f"variant digraphs require p >= 8, got {p}")
    return _template_bits(p, variant, variant_assignment(n))


def hex_digraph6(p: int, rows: HexRows) -> Iterator[str]:
    """``digraph6_blocks`` of the p-point digraph whose rows are ``rows``:
    each piece's digits read from the rows it spans."""
    q = p // 4

    def read(start: int, stop: int) -> bytes:
        # four bits a digit: start is a multiple of 24 and stop of 16
        a, b = start // 4, stop // 4
        first = a // q
        digits = rows(first, -(-b // q))
        return bytes.fromhex(digits[a - first * q : b - first * q])

    return digraph6_blocks(p, read)


def _squeeze(x: int, p: int) -> int:
    """The p fields of p bits of x, each with its top bit clear, as p fields
    of p - 1 bits: field f, counted from the low end, moves down f bits, in
    log2 p steps.  Step t moves down 2**t bits the fields whose f has bit t
    set, 2**t adjacent fields in each group of 2**(t + 1), which lie end to
    end after the earlier steps."""
    for t in range(p.bit_length() - 1):
        s = 1 << t
        period = 2 * s * p
        groups = int.from_bytes((bytes(period // 8 - 1) + b"\1") * (p // (2 * s)), "big")
        run = s * (p - 1)
        moving = x & ((groups << run) - groups) << s * p
        x ^= moving
        x |= moving >> s
    return x


def deck_digraph6(p: int, rows: HexRows) -> Iterator[str]:
    """The deck of the p-point digraph whose rows are ``rows``: for k = 1..p,
    the digraph6 of the card without point k (``digraph6_blocks``) and a
    newline, each the text of ``Digraph.delete_point(k).to_digraph6()``.

    The digraph is one int, row 0 the top p bits, and W_k, with 0-based k,
    is it with column k cut from every row: p fields of p - 1 bits.  W_0
    and W_1 are squeezed from the digraph (``_squeeze``); then W_k is
    W_{k-1} with bit p - 1 - k of each field, where column k sat, taken
    from bit p - k of W_{k-2}, where column k - 1 sits.  Card k is W_k
    with field k cut out.  O(p) operations on ints of p**2 bits.
    """
    m = p - 1
    g = int(rows(0, p), 16)
    column = ((1 << p * p) - 1) // ((1 << p) - 1)  # bit 0 of each p-bit row
    top = column << m
    below = (column << m - 1) - column  # bits 0 .. p - 3 of each row
    w0, w1 = _squeeze(g ^ g & top, p), _squeeze(g & below | (g & top) >> 1, p)
    field = ((1 << p * m) - 1) // ((1 << m) - 1)  # bit 0 of each field
    pad = -m * m % 8

    def cards() -> Iterator[str]:
        w = w0
        for k in range(p):
            if k == 1:
                older, w = w, w1
            elif k > 1:
                older, w = w, w & ~(field << m - k) | (older & field << p - k) >> 1
            f = m - k
            card = w >> (f + 1) * m << f * m | w & (1 << f * m) - 1
            data = (card << pad).to_bytes((m * m + pad) // 8, "big")
            yield from digraph6_blocks(m, lambda a, b: data[a // 8 : -(-b // 8)])
            yield "\n"

    return cards()


_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
#: base64's digit of each 6-bit value v onto digraph6's character chr(63 + v).
_DIGRAPH6_CHARS = bytes.maketrans(_BASE64, bytes(range(63, 127)))


def digraph6_blocks(p: int, read: Callable[[int, int], bytes]) -> Iterator[str]:
    """'&' and the order, then one character per six adjacency bits in
    row-major order, the last group zero-padded.

    The bits go in pieces of a multiple of 24 bits, about ``_BLOCK_CELLS``
    each: ``read(start, stop)`` returns bits start..stop - 1 of the
    row-major stream packed big-endian in bytes, so that every piece but
    the last is whole base64 groups.  ``binascii.b2a_base64`` writes the
    six-bit values, ``bytes.translate`` moves them onto chr(63 + v), and
    each piece's text is cut at one character per six bits begun,
    dropping the padding.
    """
    yield "&" + _encode_count(p)
    size = p * p
    for block in _row_blocks(-(-size // 24), 24):
        start, stop = 24 * block.start, min(24 * block.stop, size)
        piece = read(start, stop)
        text = binascii.b2a_base64(piece + bytes(-len(piece) % 3), newline=False)
        yield text.translate(_DIGRAPH6_CHARS)[: -(-(stop - start) // 6)].decode("ascii")


def _encode_count(n: int) -> str:
    if n < 0 or n > 68719476735:
        raise ValueError(f"count out of encodable range: {n}")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        shifts = (12, 6, 0)
        return chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in shifts)
    shifts = (30, 24, 18, 12, 6, 0)
    return chr(126) * 2 + "".join(chr(((n >> s) & 63) + 63) for s in shifts)
