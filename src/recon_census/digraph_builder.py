"""From weighted matrices to digraphs: assignments, canonical pairs, census.

A proper binary assignment sends every nonzero level to 0 or 1, the same
bit for all occurrences of a level.  Applying one to a weighted matrix
yields a loop-free digraph.  The canonical tournament pair maps positive
levels to 1 and negative levels to 0; the variant digraph pair maps
1, -1 and everything >= 3 to 1, and 2, -2 and everything <= -3 to 0.
``tournament_rows`` and ``variant_rows`` give the rows of one, sliced
from four bit templates with no p x p matrix; ``tournament_digraph`` and
``variant_digraph`` are the ``Digraph`` of those rows, and the csv, dot
and digraph6 encoders read either (``Rows``).

Because the two extreme levels +-(n+1) are the only place the plain and
starred matrices disagree under the extended point-1 mapping, any
assignment giving both extremes the same bit produces an isomorphic pair
(``forced_isomorphism`` returns the witness, the permutation array of
``deletion_maps.extend_sigma_p1``).  That identity is checked for the
whole order, not per assignment: every distinct off-diagonal level pair
(plain(i, j), star(ext(i), ext(j))) must be (u, u) or an extreme pair
(+-(n+1), -+(n+1)).  Conjugating by the half-swap involution exchanges
the two extreme levels and nothing else (``swap_involution`` verifies
this), which pairs up assignments into orbits yielding the same digraph
pair.  Neither check builds a matrix: the point-1 pairs are read off
theorem 1's digit automaton on the plane k = 1 (``_point1_pairs``), and
the half swap off O(log p) class-table rows, as is whether an
assignment yields tournaments (``_twin_levels``), at every order.
``assignment_census`` tabulates which proper assignments at small
orders yield tournaments and non-isomorphic pairs, reading the bits of
all of them as one table, and proves every row by the paper's halving
argument, built up from order 4 with no search (``_census_verdicts``).
The rows with equal extreme bits are isomorphic by
``forced_isomorphism``'s witness.  Every other row splits by degree, so
that any isomorphism carries each half onto the other side's opposite
half, whose induced pair is the half-order pair of the row's bits less
the extreme ones: the row is non-isomorphic where that pair is, and
otherwise isomorphic by its witness lifted across the halves.  Every
witness is checked arc by arc.  The test suite checks the census
against a form that searches every row.

``BinaryAssignment`` and ``Digraph`` are plain classes that validate on
construction and refuse to rebind an attribute; the census rows and
table (``CensusRow``, ``CensusTable``) are NamedTuples.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from recon_census.deletion_maps import _permuted, extend_sigma_p1
from recon_census.errors import ContradictionError
from recon_census.weight_matrix import (
    _CLASS_TABLE,
    MatrixVariant,
    WeightedMatrix,
    _Frozen,
    _ascii_text,
    _checked_offset_table,
    _first_cell,
    _nested_rows,
    _offset_case_table,
    _reached_rows,
    _row_blocks,
    _text_grid,
    build_dense,
    order_exponent,
)

__all__ = [
    "BinaryAssignment",
    "CENSUS_ORDERS",
    "CensusRow",
    "CensusTable",
    "Digraph",
    "apply_assignment",
    "assignment_census",
    "assignment_from_bits",
    "assignment_from_mapping",
    "forced_isomorphism",
    "standard_pair",
    "swap_involution",
    "threshold_scores",
    "tournament_assignment",
    "tournament_digraph",
    "variant_assignment",
    "variant_digraph",
    "variant_pair",
]

#: The adjacency rows of a digraph on points 1..p: ``rows(block)`` returns
#: the 0/1 uint8 rows of the row slice ``block`` as a (rows, p) array.
Rows = Callable[[slice], np.ndarray]

#: Orders where the census tabulates every proper assignment.
CENSUS_ORDERS = (8, 16)


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

    def items(self):
        return zip(self.level_order(), self.bits)

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


def assignment_from_bits(n: int, bit_string: str) -> BinaryAssignment:
    if set(bit_string) - {"0", "1"}:
        raise ValueError(f"bit string must be binary, got {bit_string!r}")
    return BinaryAssignment(n, tuple(int(c) for c in bit_string))


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


class Digraph(_Frozen):
    """Immutable loop-free digraph on points 1..p, adjacency as 0/1 bytes.

    Construction validates the array and makes it read-only.  Equal
    digraphs compare equal; they are not hashable."""

    def __init__(self, order: int, adjacency: np.ndarray) -> None:
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "adjacency", adjacency)
        a = self.adjacency
        if a.shape != (self.order, self.order) or a.dtype != np.uint8:
            raise ValueError("adjacency must be a uint8 array of shape (p, p)")
        if a.max(initial=0) > 1:
            raise ValueError("adjacency entries must be 0 or 1")
        if np.any(np.diagonal(a) != 0):
            raise ValueError("loops are not allowed")
        a.setflags(write=False)

    def arc(self, i: int, j: int) -> bool:
        if not (1 <= i <= self.order and 1 <= j <= self.order):
            raise IndexError(f"points must lie in 1..{self.order}, got ({i}, {j})")
        return bool(self.adjacency[i - 1, j - 1])

    def arc_count(self) -> int:
        return int(self.adjacency.sum())

    def scores(self) -> tuple[int, ...]:
        """Outdegrees in point order."""
        return tuple(int(s) for s in self.adjacency.sum(axis=1))

    def is_tournament(self) -> bool:
        """Whether exactly one of the arcs i -> j, j -> i exists for every
        i != j, read one ``weight_matrix._row_blocks`` block at a time."""
        a = self.adjacency

        def unpaired(rows):
            same = a[rows] == a.T[rows]
            np.fill_diagonal(same[:, rows.start :], False)
            return same

        return _first_cell(self.order, self.order, unpaired) is None

    def delete_point(self, k: int) -> "Digraph":
        """Point-deleted subgraph, remaining points relabeled order-preservingly."""
        if not 1 <= k <= self.order:
            raise IndexError(f"point must lie in 1..{self.order}, got {k}")
        trimmed = np.delete(np.delete(self.adjacency, k - 1, axis=0), k - 1, axis=1)
        return Digraph(self.order - 1, np.ascontiguousarray(trimmed))

    @cached_property
    def bitrows(self) -> tuple[int, ...]:
        """Row bitmasks: bit (j-1) of entry (i-1) set when arc i -> j exists."""
        packed = np.packbits(self.adjacency, axis=1, bitorder="little")
        return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.order == other.order and np.array_equal(
            self.adjacency, other.adjacency
        )

    def __repr__(self) -> str:
        return f"Digraph(order={self.order}, arcs={self.arc_count()})"

    def csv_blocks(self) -> Iterator[str]:
        """``_csv_blocks`` of the adjacency rows."""
        return _csv_blocks(self.order, self.adjacency.__getitem__)

    def dot_blocks(self, name: str = "G") -> Iterator[str]:
        """``_dot_blocks`` of the adjacency rows."""
        return _dot_blocks(self.order, self.adjacency.__getitem__, name)

    def digraph6_blocks(self) -> Iterator[str]:
        """``_digraph6_blocks`` of the adjacency rows."""
        return _digraph6_blocks(self.order, self.adjacency.__getitem__)

    def to_csv(self) -> str:
        return "".join(self.csv_blocks())

    def to_dot(self, name: str = "G") -> str:
        return "".join(self.dot_blocks(name))

    def to_digraph6(self) -> str:
        return "".join(self.digraph6_blocks())

    @classmethod
    def from_digraph6(cls, text: str) -> "Digraph":
        text = text.strip()
        if not text.startswith("&"):
            raise ValueError("digraph6 data must start with '&'")
        n, pos = _decode_count(text, 1)
        need = (n * n + 5) // 6
        body = text[pos:]
        if len(body) != need:
            raise ValueError(f"expected {need} payload characters, got {len(body)}")
        codes = np.frombuffer(body.encode("ascii"), dtype=np.uint8).astype(np.int32) - 63
        if codes.size and (codes.min() < 0 or codes.max() > 63):
            raise ValueError("payload characters out of range")
        bits = (codes[:, None] >> np.arange(5, -1, -1)) & 1
        adj = bits.reshape(-1)[: n * n].reshape(n, n).astype(np.uint8)
        return cls(n, adj)


# The three text encoders read a p-point digraph through ``rows(block)``,
# the 0/1 uint8 adjacency rows of the row slice ``block``: a dense
# ``Digraph``'s adjacency, or the bit templates of ``tournament_rows`` and
# ``variant_rows``.


def _csv_blocks(p: int, rows: Rows) -> Iterator[str]:
    """Rows of 0/1 cells, comma-separated, one ``_text_grid`` block at a time."""
    return _text_grid(p, rows, ("0", "1"), ",")


def _dot_blocks(p: int, rows: Rows, name: str = "G") -> Iterator[str]:
    """Graphviz text: the header with every point declared, the arc
    lines of one ``weight_matrix._row_blocks`` block of rows at a time,
    then the closing brace.

    An arc line is the zero-padded byte string of its tail point joined
    to that of its head point, gathered and masked as in
    ``weight_matrix._text_grid``, and a block counts each cell as the
    bytes of its line plus its two indices.
    """
    yield f"digraph {name} {{\n" + "".join([f"  {i};\n" for i in range(1, p + 1)])
    tails = np.array([f"  {i} -> " for i in range(1, p + 1)], dtype="S")
    heads = np.array([f"{j};\n" for j in range(1, p + 1)], dtype="S")
    line = tails.itemsize + heads.itemsize
    for block in _row_blocks(p, p * (line + 16)):
        tail, head = np.nonzero(rows(block))
        tail += block.start
        yield _ascii_text(np.strings.add(tails[tail], heads[head]))
    yield "}\n"


def _digraph6_blocks(p: int, rows: Rows) -> Iterator[str]:
    """'&' and the order, then one character per six adjacency bits in
    row-major order, the last group zero-padded.  The groups are packed
    in uint8 and yielded one ``weight_matrix._row_blocks`` block of them
    at a time, each read from the rows it spans."""
    weights = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
    yield "&" + _encode_count(p)
    size = p * p
    for block in _row_blocks(-(-size // 6), 6):
        start, stop = 6 * block.start, min(6 * block.stop, size)
        first = start // p
        bits = rows(slice(first, -(-stop // p))).reshape(-1)
        chunk = bits[start - first * p : stop - first * p]
        if chunk.size % 6:
            chunk = np.concatenate([chunk, np.zeros(-chunk.size % 6, np.uint8)])
        codes = chunk.reshape(-1, 6) @ weights + np.uint8(63)
        yield codes.tobytes().decode("ascii")


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


def _decode_count(text: str, pos: int) -> tuple[int, int]:
    """The count at ``pos`` (one, '~' and three, or '~~' and six size
    characters) and the position after it.  A truncated count, or a size
    character outside '?'..'~', raises ValueError."""
    if text.startswith("~~", pos):
        start, width = pos + 2, 6
    elif text.startswith("~", pos):
        start, width = pos + 1, 3
    else:
        start, width = pos, 1
    field = text[start : start + width]
    if len(field) != width:
        raise ValueError("digraph6 header is truncated")
    value = 0
    for c in field:
        code = ord(c) - 63
        if not 0 <= code <= 63:
            raise ValueError(f"digraph6 size character {c!r} is outside '?'..'~'")
        value = (value << 6) | code
    return value, start + width


def threshold_scores(p: int, variant: MatrixVariant) -> np.ndarray:
    """Scores of the order-p canonical tournament, from its offset table's signs."""
    order_exponent(p)
    return _sign_scores(_offset_case_table(p, variant) > 0)


def _sign_scores(positive: np.ndarray) -> np.ndarray:
    """Scores of the tournament whose arcs are the true entries of the
    order-p offset-table signs ``positive`` (``_offset_case_table > 0``).

    An entry depends only on its block offset d and its residues (r, c), so
    the positive entries are counted once per (d, r) in the offset table
    and summed cumulatively over d.  A row in block b reaches exactly the
    offsets -b..p/4-1-b, so its score is a difference of two prefix sums:
    O(p) work and memory in total.  The prefix sums, each below 2p, are
    held in int32 (exact up to p = 2**30); the scores are int64.
    """
    nb = (len(positive) + 1) // 2
    # a row's four cells as the 0/1 bytes of one uint32, whose bit count is
    # the positive count: ten times faster than a sum over an axis of 4
    counts = np.bitwise_count(positive.view(np.uint32))
    cum = np.zeros((2 * nb, 4), dtype=np.int32)
    np.cumsum(counts[..., 0], axis=0, dtype=np.int32, out=cum[1:])
    upper, lower = cum[2 * nb - 1 : nb - 1 : -1], cum[nb - 1 :: -1]
    return np.subtract(upper, lower, dtype=np.int64).reshape(4 * nb)


def _bit_luts(bits: np.ndarray) -> np.ndarray:
    """Level tables of assignments given as 0/1 ``bits`` rows aligned with
    ``level_order()``: in each, the bit of each level at index level, a
    negative level counted from the end as numpy indexes, and level 0 gets
    0.  So an array of levels (int8 entries too) indexes a table directly,
    with no shifted copy; a stack of rows gives a stack of tables."""
    top = bits.shape[-1] // 2
    zero = np.zeros_like(bits[..., :1])
    return np.concatenate([zero, bits[..., :top], bits[..., top:][..., ::-1]], axis=-1)


def _bit_lut(a: BinaryAssignment) -> np.ndarray:
    """The level table of one assignment (``_bit_luts``)."""
    return _bit_luts(np.array(a.bits, dtype=np.uint8))


def apply_assignment(m: WeightedMatrix, a: BinaryAssignment) -> Digraph:
    """Replace each off-diagonal entry by its assigned bit; no loops."""
    n = m.exponent
    if a.order_n != n:
        raise ValueError(
            f"assignment covers levels up to {a.order_n + 1}, matrix needs {n + 1}"
        )
    # the diagonal's level 0 gets bit 0
    return Digraph(m.order, _bit_lut(a)[m.entries])


def tournament_digraph(p: int, variant: MatrixVariant) -> Digraph:
    """One digraph of the canonical tournament pair (positive entries
    become arcs), built alone: the ``Digraph`` of ``tournament_rows``,
    checked as they are."""
    return Digraph(p, tournament_rows(p, variant)(slice(None)))


def variant_digraph(p: int, variant: MatrixVariant) -> Digraph:
    """One digraph of the variant pair at order p >= 8, built alone: the
    ``Digraph`` of ``variant_rows``, checked as they are."""
    return Digraph(p, variant_rows(p, variant)(slice(None)))


def _template_rows(p: int, variant: MatrixVariant, a: BinaryAssignment) -> Rows:
    """The adjacency rows of ``apply_assignment(build_dense(p, variant), a)``,
    sliced from four bit templates, with no p x p matrix.

    As in ``weight_matrix.csv_blocks``, row i = 4B + r is the p cells
    from p - 4 - 4B on of the residue-r template, laid end to end from
    the offset table; here each template cell is its level's bit.  So a
    block of rows is one gather of windows of the templates.  The offset
    table is read through ``_checked_offset_table``, which checks it as
    ``build_dense`` checks the matrix, when this is called; the templates
    are O(p) bytes.
    """
    t = _checked_offset_table(p, variant)
    template = _bit_lut(a)[t].transpose(1, 0, 2).reshape(4, -1)
    windows = sliding_window_view(template, p, axis=1)

    def rows(block: slice) -> np.ndarray:
        i = np.arange(*block.indices(p))
        return windows[i & 3, p - 4 - 4 * (i >> 2)]

    return rows


def tournament_rows(p: int, variant: MatrixVariant) -> Rows:
    """The adjacency rows of the canonical tournament pair's ``variant``
    digraph, with no p x p matrix: ``_template_rows``, then
    ``_check_tournaments``."""
    rows = _template_rows(p, variant, tournament_assignment(order_exponent(p)))
    _check_tournaments(p)
    return rows


def variant_rows(p: int, variant: MatrixVariant) -> Rows:
    """The adjacency rows of the variant pair's ``variant`` digraph at order
    p >= 8 (``_template_rows``), with no p x p matrix."""
    n = order_exponent(p)
    if p < 8:
        raise ValueError(f"variant digraphs require p >= 8, got {p}")
    return _template_rows(p, variant, variant_assignment(n))


def standard_pair(p: int) -> tuple[Digraph, Digraph]:
    """The canonical tournament pair at order p."""
    return tuple(tournament_digraph(p, v) for v in MatrixVariant)


def variant_pair(p: int) -> tuple[Digraph, Digraph]:
    """The second digraph pair at order p >= 8 (not tournaments)."""
    return tuple(variant_digraph(p, v) for v in MatrixVariant)


def _is_arc_preserving(g: Digraph, h: Digraph, perm) -> bool:
    """Whether the 1-based point map ``perm`` carries every arc of g onto h."""
    sel = np.asarray(perm, dtype=np.int64) - 1
    return np.array_equal(g.adjacency, _permuted(h.adjacency, sel))


def _point1_pairs(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct level pairs (u, v) = (plain(i, j), star(ext(i), ext(j)))
    of the extended point-1 mapping ``ext``, ascending, as two arrays: the
    final levels of theorem 1's digit automaton on its plane k = 1, less
    the diagonal states that read (0, 0), so a nonzero diagonal shows."""
    # imported here to avoid a module cycle with the digit automaton
    from recon_census.theorem1_automaton import (
        _ZERO,
        _distinct,
        _LevelRule,
        _plain_offset,
        _plane,
        _walk,
    )

    _, final, plain, star = _walk(p, _LevelRule(p), *_plane(lambda a, b, c: b == 0))
    status, r, c = _plain_offset(final)
    keep = (status != _ZERO) | (r != c) | (plain != 0) | (star != 0)
    # ascending (u, v) pairs as ascending codes (u + 128) * 256 + v + 128
    u, v = (levels[keep].astype(np.int32) + 128 for levels in (plain, star))
    codes = _distinct(u << 8 | v)
    return (codes >> 8) - 128, (codes & 0xFF) - 128


def _check_point1_levels(p: int) -> None:
    """ContradictionError unless the extended point-1 mapping ``ext`` of
    order p >= 8 changes only the extreme levels: every ``_point1_pairs``
    pair (plain(i, j), star(ext(i), ext(j))) is (u, u) or
    (+-(n+1), -+(n+1)).  The error names the first pair that is not.
    Then ``ext`` carries the assigned plain digraph onto the assigned
    starred one for every assignment giving both extremes the same bit.
    ``ext`` itself is not built.
    """
    n = order_exponent(p)
    if p < 8:
        raise ValueError(f"the point-1 level check requires p >= 8, got {p}")
    u, v = _point1_pairs(p)
    stray = (v != u) & ((np.abs(u) != n + 1) | (v != -u))
    if stray.any():
        at = np.argmax(stray)
        raise ContradictionError(
            f"extended point-1 mapping is not an isomorphism at p={p}: "
            f"it sends plain level {u[at]} onto starred level {v[at]}"
        )


def _level_table(p: int) -> np.ndarray:
    """The forced rows' witness ``extend_sigma_p1(p)``, read-only, once the
    identity that makes it one holds (``_check_point1_levels``): checked
    for the whole order on every call, a violation is a fatal internal
    error.
    """
    ext = extend_sigma_p1(p)
    ext.setflags(write=False)
    _check_point1_levels(p)
    return ext


def forced_isomorphism(p: int, a: BinaryAssignment) -> Optional[np.ndarray]:
    """Witness permutation when both extreme levels get the same bit, else None.

    The witness is the extended point-1 mapping (``extend_sigma_p1``, slot
    i - 1 holding the image of point i) as the read-only array of
    ``_level_table``, which checks on every call that the mapping changes
    only the extreme levels.  So it carries the assigned plain digraph onto
    the assigned starred one, and an order where it does not raises
    ContradictionError for every assignment with equal extreme bits, the
    all-zero one too.
    """
    n = order_exponent(p)
    if p < 8:
        raise ValueError(f"forced_isomorphism requires p >= 8, got {p}")
    if a.order_n != n:
        raise ValueError("assignment exponent does not match the order")
    if a.value_for(n + 1) != a.value_for(-(n + 1)):
        return None
    return _level_table(p)


def _twin_levels(p: int) -> np.ndarray:
    """The level pairs (u, v), an int8 (2, k) array, of each off-diagonal
    cell (i, j) and its twin (j, i) at order p, both variants, read off the
    class table's ``_reached_rows`` on every call: the twin of residues
    (r, c) in the row of offset d is (c, r) in the row of -d (``row ^ 1``).
    The row of d = 0 is its own twin, and a nonzero level on its diagonal
    (a loop) pairs with itself.  An assignment yields a pair of
    tournaments exactly when it gives u and v unlike bits in every pair.
    """
    rows = _reached_rows(p)
    twins = np.where(rows == rows[0], rows, rows ^ 1)
    classes = np.stack([_CLASS_TABLE[v] for v in MatrixVariant])
    u, v = classes[:, rows], classes[:, twins].swapaxes(2, 3)
    # the zero row's diagonal cells at level 0 pair with nothing
    keep = np.ones(u.shape, dtype=bool)
    keep[:, 0] = ~np.eye(4, dtype=bool) | (u[:, 0] != 0)
    return np.stack([u[keep], v[keep]])


def _tournament_rows(twins: np.ndarray, luts: np.ndarray) -> np.ndarray:
    """Whether each level table of the stack ``luts`` (``_bit_luts``)
    yields a pair of tournaments: whether it gives the two levels of every
    ``_twin_levels`` pair unlike bits (level 0 gets 0, as off the diagonal
    it makes no arc).  A level outside +-(n+1) has no bit (the table would
    wrap it onto another level's), so it fails every table."""
    top = luts.shape[-1] // 2
    if twins.min() < -top or twins.max() > top:
        return np.zeros(luts.shape[:-1], dtype=bool)
    return np.all(luts[..., twins[0]] != luts[..., twins[1]], axis=-1)


def _check_tournaments(p: int) -> None:
    """ContradictionError unless the tournament assignment of order p
    yields a pair of tournaments (``_tournament_rows``), read off the class
    table's ``_twin_levels`` with no matrix or digraph."""
    lut = _bit_lut(tournament_assignment(order_exponent(p)))
    if not _tournament_rows(_twin_levels(p), lut):
        raise ContradictionError("canonical pair failed the tournament check")


def _check_half_swap(p: int) -> None:
    """ContradictionError unless conjugating either matrix by the half
    swap tau of ``swap_involution`` exchanges the levels n+1 and -(n+1)
    and fixes every other level, read off O(log p) class-table rows.

    tau keeps every cell's residues and offset class but exchanges the
    offsets +-p/8, the last two ``_reached_rows``: it keeps an offset D
    where the top block bits are equal (|D| < p/8), and sends it to
    D -+ p/4, of D's class unless D = +-p/8, where they differ.  So in
    each variant no other reached row may hold +-(n+1), and the row of
    -p/8 must be that of +p/8 with +-(n+1) negated.
    """
    n = order_exponent(p)
    if p < 8:
        raise ValueError(f"swap_involution requires p >= 8, got {p}")
    rows = _reached_rows(p)
    for variant in (MatrixVariant.PLAIN, MatrixVariant.STAR):
        levels = _CLASS_TABLE[variant][rows].astype(np.int16)
        up, down = levels[-2:]
        swapped = np.where(np.abs(up) == n + 1, -up, up)
        if np.any(np.abs(levels[:-2]) == n + 1) or np.any(down != swapped):
            raise ContradictionError(
                f"half-swap failed the level-swap identity at p={p} ({variant.value})"
            )


def swap_involution(p: int) -> np.ndarray:
    """The half-swap permutation, verified to exchange only the extreme levels.

    Returns tau with tau(i) = i + p/2 for i <= p/2 and i - p/2 above.
    Conjugating either matrix by tau must swap the levels n+1 and -(n+1)
    and fix every other level (``_check_half_swap``); failure is a fatal
    internal error.
    """
    _check_half_swap(p)
    tau = np.arange(p, dtype=np.int32)
    tau ^= p // 2  # tau(i) - 1 is i - 1 with its top bit flipped
    tau += 1
    tau.setflags(write=False)
    return tau


class CensusRow(NamedTuple):
    assignment_bits: str
    is_tournament: bool
    isomorphic: bool
    orbit_id: int


class CensusTable(NamedTuple):
    """One row per proper assignment, in ascending bit-string order."""

    order: int
    rows: tuple[CensusRow, ...]

    def to_csv(self) -> str:
        def word(value: bool) -> str:
            return "yes" if value else "no"

        lines = ["assignment_bits,is_tournament,isomorphic,orbit_id"]
        for row in self.rows:
            lines.append(
                f"{row.assignment_bits},{word(row.is_tournament)},"
                f"{word(row.isomorphic)},{row.orbit_id}"
            )
        return "\n".join(lines) + "\n"


def _row_bits(n: int) -> np.ndarray:
    """The bits of every proper assignment of order exponent n, as a
    (2^m, m) uint8 table, m = 2(n + 1): row x holds x in binary."""
    m = 2 * (n + 1)
    x = np.arange(1 << m)
    return (x[:, None] >> np.arange(m - 1, -1, -1) & 1).astype(np.uint8)


def _stacked_pairs(p: int, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The plain and starred digraphs at order p of the assignments whose
    bits are the rows of ``bits``, stacked as two (rows, p, p) uint8 arrays
    read off the dense matrices."""
    luts = _bit_luts(bits)
    return tuple(luts[:, build_dense(p, v).entries] for v in MatrixVariant)


def _splits(plain: np.ndarray, star: np.ndarray) -> np.ndarray:
    """Whether the (out, in) degree keys of each stacked pair force any
    isomorphism to carry the plain first half onto the starred last half
    and the plain last half onto the starred first half: the plain halves'
    keys are disjoint, the plain first half's key multiset equals the
    starred last half's, and the plain last half's the starred first's (so
    the starred halves' keys are disjoint too)."""
    p = plain.shape[-1]
    h = p // 2
    (plain_first, plain_last), (star_first, star_last) = (
        (np.sort(keys[:, :h]), np.sort(keys[:, h:]))
        for keys in (
            side.sum(axis=2, dtype=np.int16) * p + side.sum(axis=1, dtype=np.int16)
            for side in (plain, star)
        )
    )
    disjoint = ~np.any(plain_first[:, :, None] == plain_last[:, None, :], axis=(1, 2))
    crossed = np.all(plain_first == star_last, axis=1) & np.all(plain_last == star_first, axis=1)
    return disjoint & crossed


def _census_verdicts(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Whether the pair of each proper assignment at order p is isomorphic,
    and a 0-based witness (slot i holds the image of point i + 1, less 1)
    for each isomorphic one, by the halving argument from order 4 up.

    At order 4 every row's pair is tried against all 24 bijections in one
    stacked compare, the witness the first that carries it.  At each order
    p >= 8 the diagonal quadrants of both matrices are first checked to be
    the half-order matrices (``_nested_rows``, lemma 1(a)), so each half of
    a pair is the half-order pair of s', the row's bits less those of the
    extreme levels +-(n+1).  Then a forced row (equal extreme bits) is
    isomorphic by ``_level_table``'s witness.  Every other row must split
    (``_splits``): any isomorphism then restricts to one of s''s pair, so
    the row is non-isomorphic where s' is.  Where s' has a witness w, it is
    lifted crosswise, i -> w(i) + p/2 on the first half and
    i -> w(i - p/2) on the last, and checked arc by arc on the stacked
    pairs of the unforced rows, in one exact compare.  A row that fails its
    split or its lift raises ContradictionError naming its bits.
    """
    if p == 4:
        plain, star = _stacked_pairs(4, _row_bits(2))
        perms = np.array(list(itertools.permutations(range(4))), dtype=np.uint8)
        moved = star[:, perms[:, :, None], perms[:, None, :]]
        hits = np.all(plain[:, None] == moved, axis=(2, 3))
        return hits.any(axis=1), perms[hits.argmax(axis=1)]
    n = order_exponent(p)
    h = p // 2
    for variant in MatrixVariant:
        if not np.array_equal(
            _nested_rows(_offset_case_table(p, variant)), _offset_case_table(h, variant)
        ):
            raise ContradictionError(
                f"diagonal quadrants at p={p} ({variant.value}) differ from p={h}"
            )
    half_iso, half_witness = _census_verdicts(h)
    bits = _row_bits(n)
    # s': drop bit 0 (level -(n+1)), then bit n (level n+1) of what is left
    x = np.arange(len(bits)) >> 1
    sub = (x >> (n + 1)) << n | x & ((1 << n) - 1)
    forced = bits[:, n] == bits[:, -1]
    witness = np.empty((len(bits), p), dtype=np.uint8)
    witness[forced] = _level_table(p) - 1
    # the unforced rows, stacked once the half order's stacks and the
    # automaton of ``_level_table`` are freed
    rows = np.flatnonzero(~forced)
    w = half_witness[sub[rows]]
    witness[rows] = np.concatenate([w + h, w], axis=1)
    plain, star = _stacked_pairs(p, bits[rows])
    # the starred digraphs moved by each lift, less the plain ones
    lift = witness[rows]
    moved = star[np.arange(len(rows))[:, None, None], lift[:, :, None], lift[:, None, :]]
    moved ^= plain
    for bad, what in (
        (~_splits(plain, star), "does not split by degree"),
        (half_iso[sub[rows]] & moved.any(axis=(1, 2)), "is not carried by its lifted witness"),
    ):
        if bad.any():
            row = format(int(rows[np.argmax(bad)]), f"0{bits.shape[1]}b")
            raise ContradictionError(f"census row {row} at p={p} {what}")
    return forced | half_iso[sub], witness


def assignment_census(p: int) -> CensusTable:
    """Tabulate every proper assignment at an order p in ``CENSUS_ORDERS``.

    Each row records whether the assigned pair are tournaments and whether
    they are isomorphic (``_census_verdicts``, which proves every row by
    the halving argument, with no search).  Row x has the assignment whose
    bit string is x in binary, so the extreme levels n+1 and -(n+1) are
    bit n+1 and bit 0.  ``orbit_id`` is the smaller of x and its partner,
    x with those two bits exchanged, which yields the same digraph pair up
    to the half-swap relabeling (``_check_half_swap``, checked first).

    The bits of all 2^m rows are read as one (2^m, m) table, and each flag
    is one vector operation over it.  The tournament flag reads the
    ``_twin_levels`` pairs, taken once per order, for every row.
    """
    if p not in CENSUS_ORDERS:
        orders = " and ".join(map(str, CENSUS_ORDERS))
        raise ValueError(f"census is available at orders {orders}, got {p}")
    n = order_exponent(p)
    _check_half_swap(p)
    isomorphic, _ = _census_verdicts(p)
    bits = _row_bits(n)
    x = np.arange(len(bits))
    # the extreme levels n+1 and -(n+1) are columns n and m - 1
    partner = np.where(bits[:, n] == bits[:, -1], x, x ^ (1 << (n + 1) | 1))
    tournaments = _tournament_rows(_twin_levels(p), _bit_luts(bits))
    m = bits.shape[1]
    rows = tuple(
        CensusRow(format(v, f"0{m}b"), t, i, o)
        for v, t, i, o in zip(
            x.tolist(), tournaments.tolist(), isomorphic.tolist(),
            np.minimum(x, partner).tolist(),
        )
    )
    return CensusTable(p, rows)
