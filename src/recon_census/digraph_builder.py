"""From weighted matrices to digraphs: assignments, canonical pairs, census.

A proper binary assignment sends every nonzero level to 0 or 1, the same
bit for all occurrences of a level.  Applying one to a weighted matrix
yields a loop-free digraph.  The canonical tournament pair maps positive
levels to 1 and negative levels to 0; the variant digraph pair maps
1, -1 and everything >= 3 to 1, and 2, -2 and everything <= -3 to 0.

Because the two extreme levels +-(n+1) are the only place the plain and
starred matrices disagree under the extended point-1 mapping, any
assignment giving both extremes the same bit produces an isomorphic pair
(``forced_isomorphism`` returns the witness, the permutation array of
``deletion_maps.extend_sigma_p1``).  That identity is checked once per
order: every distinct off-diagonal level pair (plain(i, j),
star(ext(i), ext(j))) must be (u, u) or an extreme pair
(+-(n+1), -+(n+1)).  Conjugating by the half-swap involution exchanges
the two extreme levels and nothing else (``swap_involution`` verifies
this), which pairs up assignments into orbits yielding the same digraph
pair.  Both point maps are checked through one scan, ``_level_pairs``,
which collects the distinct level pairs a point map makes between two
dense matrices.  ``assignment_census`` enumerates every proper
assignment at small orders, in one pass over the integer rows, and
tabulates which ones yield non-isomorphic pairs.  It settles the rows
with equal extreme bits through ``forced_isomorphism`` and runs one
isomorphism search per remaining swap orbit (64 at p = 8, 256 at p = 16,
in the calling process); the other member of the orbit copies the
verdict.  The test suite checks the census against a form that searches
every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple, Optional

import numpy as np

from recon_census.deletion_maps import _permuted, extend_sigma_p1
from recon_census.errors import ContradictionError
from recon_census.weight_matrix import (
    MatrixVariant,
    WeightedMatrix,
    _ascii_text,
    _first_cell,
    _offset_case_table,
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
    "DEFAULT_ISO_BUDGET",
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

#: Node budget of one isomorphism search when the caller names none.
DEFAULT_ISO_BUDGET = 200_000
#: Orders where the census tabulates every proper assignment within budget.
CENSUS_ORDERS = (8, 16)


@dataclass(frozen=True)
class BinaryAssignment:
    """A proper assignment of bits to the nonzero levels of order exponent n.

    ``bits`` is aligned with ``level_order()``: levels 1..n+1 first, then
    -1..-(n+1).
    """

    order_n: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        m = 2 * (self.order_n + 1)
        if len(self.bits) != m:
            raise ValueError(f"expected {m} bits, got {len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

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


@dataclass(frozen=True, eq=False)
class Digraph:
    """Immutable loop-free digraph on points 1..p, adjacency as 0/1 bytes."""

    order: int
    adjacency: np.ndarray

    def __post_init__(self) -> None:
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
        """Rows of 0/1 cells, comma-separated, one ``_text_grid`` block at a time."""
        return _text_grid(self.order, self.adjacency.__getitem__, ("0", "1"), ",")

    def dot_blocks(self, name: str = "G") -> Iterator[str]:
        """Graphviz text: the header with every point declared, the arc
        lines of one ``weight_matrix._row_blocks`` block of rows at a time,
        then the closing brace.

        An arc line is the zero-padded byte string of its tail point joined
        to that of its head point, gathered and masked as in
        ``weight_matrix._text_grid``, and a block counts each cell as the
        bytes of its line plus its two indices.
        """
        p = self.order
        yield f"digraph {name} {{\n" + "".join([f"  {i};\n" for i in range(1, p + 1)])
        tails = np.array([f"  {i} -> " for i in range(1, p + 1)], dtype="S")
        heads = np.array([f"{j};\n" for j in range(1, p + 1)], dtype="S")
        line = tails.itemsize + heads.itemsize
        for block in _row_blocks(p, p * (line + 16)):
            rows, cols = np.nonzero(self.adjacency[block])
            rows += block.start
            yield _ascii_text(np.strings.add(tails[rows], heads[cols]))
        yield "}\n"

    def digraph6_blocks(self) -> Iterator[str]:
        """'&' and the order, then one character per six adjacency bits in
        row-major order, the last group zero-padded.  The groups are packed
        in uint8 and yielded one ``weight_matrix._row_blocks`` block of them
        at a time."""
        bits = self.adjacency.reshape(-1)
        weights = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
        yield "&" + _encode_count(self.order)
        for block in _row_blocks(-(-bits.size // 6), 6):
            chunk = bits[6 * block.start : 6 * block.stop]
            if chunk.size % 6:
                chunk = np.concatenate([chunk, np.zeros(-chunk.size % 6, np.uint8)])
            codes = chunk.reshape(-1, 6) @ weights + np.uint8(63)
            yield codes.tobytes().decode("ascii")

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


def _bit_lut(a: BinaryAssignment) -> np.ndarray:
    """The bit of each level at index level, a negative level counted from
    the end as numpy indexes; level 0 gets 0.  So an array of levels (int8
    entries too) indexes it directly, with no shifted copy."""
    lut = np.zeros(2 * a.order_n + 3, dtype=np.uint8)
    for level, bit in a.items():
        lut[level] = bit
    return lut


def apply_assignment(m: WeightedMatrix, a: BinaryAssignment) -> Digraph:
    """Replace each off-diagonal entry by its assigned bit; no loops."""
    n = m.exponent
    if a.order_n != n:
        raise ValueError(
            f"assignment covers levels up to {a.order_n + 1}, matrix needs {n + 1}"
        )
    # the diagonal's level 0 gets bit 0
    return Digraph(m.order, _bit_lut(a)[m.entries])


def _assigned_pair(p: int, a: BinaryAssignment) -> tuple[Digraph, Digraph]:
    """One assignment applied to the cached plain and starred matrices."""
    return tuple(apply_assignment(build_dense(p, v), a) for v in MatrixVariant)


def tournament_digraph(p: int, variant: MatrixVariant) -> Digraph:
    """One digraph of the canonical tournament pair, built alone and
    checked to be a tournament (positive entries become arcs)."""
    a = tournament_assignment(order_exponent(p))
    g = apply_assignment(build_dense(p, variant), a)
    if not g.is_tournament():
        raise ContradictionError("canonical pair failed the tournament check")
    return g


def variant_digraph(p: int, variant: MatrixVariant) -> Digraph:
    """One digraph of the variant pair at order p >= 8, built alone."""
    n = order_exponent(p)
    if p < 8:
        raise ValueError(f"variant digraphs require p >= 8, got {p}")
    return apply_assignment(build_dense(p, variant), variant_assignment(n))


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


def _level_pairs(a: np.ndarray, b: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The distinct off-diagonal level pairs (a[i, j], b[perm[i], perm[j]]).

    ``a`` and ``b`` are p x p level matrices and ``perm`` a 0-based point
    map, so the pairs say which level of ``a`` the map sends onto which
    level of ``b``.  They are counted one ``weight_matrix._row_blocks``
    block at a time and returned as a read-only (k, 2) array in ascending
    order.  The p diagonal cells are taken off the (0, 0) count again, so
    a nonzero diagonal cell still shows as a pair.
    """
    p = len(a)
    top = order_exponent(p) + 1
    width = 2 * top + 1
    counts = np.zeros(width * width, dtype=np.int64)
    for block in _row_blocks(p, p):
        image = b.take(perm[block], axis=0).take(perm, axis=1)
        codes = (a[block].astype(np.int16) + top) * width + (image + top)
        counts += np.bincount(codes.ravel(), minlength=width * width)
    counts[top * width + top] -= p
    pairs = np.argwhere(counts.reshape(width, width)) - top
    pairs.setflags(write=False)
    return pairs


class _LevelTable(NamedTuple):
    witness: np.ndarray  # extend_sigma_p1(p), read-only
    levels: np.ndarray  # the levels occurring off the diagonal


@lru_cache(maxsize=1)
def _level_table(p: int) -> _LevelTable:
    """The per-order table behind forced rows and tournament rows, checked.

    The extended point-1 mapping ``ext`` must change only the extreme
    levels: every ``_level_pairs`` pair (plain(i, j), star(ext(i), ext(j)))
    of the plain and starred matrices is (u, u) or (+-(n+1), -+(n+1)).
    Then ``ext`` carries the assigned plain digraph onto the assigned
    starred one for every assignment giving both extremes the same bit,
    so the identity is checked here, once per order, and a violation
    (named by its first pair) is a fatal internal error.  A
    ``WeightedMatrix`` is antisymmetric, so arcs i -> j and j -> i come
    from levels v and -v.  Only the last order is kept.
    """
    ext = extend_sigma_p1(p)
    ext.setflags(write=False)
    pairs = _level_pairs(
        build_dense(p, MatrixVariant.PLAIN).entries,
        build_dense(p, MatrixVariant.STAR).entries,
        ext - 1,
    )
    top = order_exponent(p) + 1
    u, v = pairs.T
    stray = (v != u) & ((np.abs(u) != top) | (v != -u))
    if stray.any():
        u, v = pairs[np.argmax(stray)].tolist()
        raise ContradictionError(
            f"extended point-1 mapping is not an isomorphism at p={p}: "
            f"it sends plain level {u} onto starred level {v}"
        )
    # not np.union1d: np.unique imports numpy.ma, a start-up cost per process
    levels = np.flatnonzero(np.bincount(pairs.ravel() + top)) - top
    levels.setflags(write=False)
    return _LevelTable(ext, levels)


def forced_isomorphism(p: int, a: BinaryAssignment) -> Optional[np.ndarray]:
    """Witness permutation when both extreme levels get the same bit, else None.

    The witness is the extended point-1 mapping (``extend_sigma_p1``, slot
    i - 1 holding the image of point i) as the read-only array of
    ``_level_table``, which checks once per order that the mapping changes
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
    return _level_table(p).witness


def _assigns_tournaments(p: int, a: BinaryAssignment) -> bool:
    """Whether the assignment's plain and starred digraphs are tournaments.

    The matrices are antisymmetric (``WeightedMatrix`` checks it), so
    this holds exactly when every level occurring off the diagonal gets
    a different bit from its negation.
    """
    lut = _bit_lut(a)
    levels = _level_table(p).levels
    return bool(np.all(lut[levels] != lut[-levels]))


def swap_involution(p: int) -> np.ndarray:
    """The half-swap permutation, verified to exchange only the extreme levels.

    Returns tau with tau(i) = i + p/2 for i <= p/2 and i - p/2 above.
    Conjugating either matrix by tau must swap the levels n+1 and -(n+1)
    and fix every other level; failure is a fatal internal error.  Each
    variant reads the ``_level_pairs`` of its cached dense matrix with
    itself under tau: every pair (u, v) must have v = -u where |u| = n+1
    and v = u elsewhere.
    """
    n = order_exponent(p)
    if p < 8:
        raise ValueError(f"swap_involution requires p >= 8, got {p}")
    h = p // 2
    tau = np.concatenate(
        [np.arange(h + 1, p + 1, dtype=np.int32), np.arange(1, h + 1, dtype=np.int32)]
    )
    for variant in (MatrixVariant.PLAIN, MatrixVariant.STAR):
        e = build_dense(p, variant).entries
        u, v = _level_pairs(e, e, tau - 1).T
        if np.any(v != np.where(np.abs(u) == n + 1, -u, u)):
            raise ContradictionError(
                f"half-swap failed the level-swap identity at p={p} ({variant.value})"
            )
    tau.setflags(write=False)
    return tau


@dataclass(frozen=True)
class CensusRow:
    assignment_bits: str
    is_tournament: bool
    isomorphic: Optional[bool]
    orbit_id: int


@dataclass(frozen=True)
class CensusTable:
    """One row per proper assignment, in ascending bit-string order."""

    order: int
    rows: tuple[CensusRow, ...]

    def to_csv(self) -> str:
        def word(value: Optional[bool]) -> str:
            if value is None:
                return "undecided"
            return "yes" if value else "no"

        lines = ["assignment_bits,is_tournament,isomorphic,orbit_id"]
        for row in self.rows:
            lines.append(
                f"{row.assignment_bits},{word(row.is_tournament)},"
                f"{word(row.isomorphic)},{row.orbit_id}"
            )
        return "\n".join(lines) + "\n"


def _census_entry(p: int, a: BinaryAssignment, budget: int) -> Optional[bool]:
    """Search verdict for one row: None when the search exhausted the budget."""
    # imported here to avoid a module cycle with the isomorphism engine
    from recon_census.iso_engine import IsoStatus, are_isomorphic

    verdict = are_isomorphic(*_assigned_pair(p, a), budget=budget)
    return {
        IsoStatus.ISOMORPHIC: True,
        IsoStatus.NON_ISOMORPHIC: False,
        IsoStatus.UNDECIDED: None,
    }[verdict.status]


def assignment_census(p: int, iso_budget: int = DEFAULT_ISO_BUDGET) -> CensusTable:
    """Tabulate every proper assignment at an order p in ``CENSUS_ORDERS``.

    Each row records whether the assigned pair are tournaments and
    whether they are isomorphic (None when the search exhausted
    ``iso_budget``).  Row x has the assignment whose bit string is x in
    binary, so the extreme levels n+1 and -(n+1) are bit n+1 and bit 0.
    ``orbit_id`` is the smaller of x and its partner, x with those two
    bits exchanged, which yields the same digraph pair up to the half-swap
    relabeling.

    One ascending pass decides the rows, building each row's assignment
    once.  A row whose extreme levels get equal bits (its own partner) is
    isomorphic by ``forced_isomorphism``, with no search.  Of the other
    rows, the one below its partner is searched through ``_census_entry``,
    in the calling process, and the partner copies its verdict.  Both
    per-order identities, ``swap_involution`` and the point-1 level check
    of ``_level_table``, run before any search.  The tournament flag is
    read from the levels.
    """
    if p not in CENSUS_ORDERS:
        orders = " and ".join(map(str, CENSUS_ORDERS))
        raise ValueError(f"census is budget-bounded to orders {orders}, got {p}")
    n = order_exponent(p)
    m = 2 * (n + 1)
    # forced rows and partners may skip the search only because these
    # identities hold; each raises otherwise
    swap_involution(p)
    _level_table(p)
    extremes = 1 << (n + 1) | 1
    rows: list[CensusRow] = []
    for x in range(1 << m):
        a = assignment_from_bits(n, format(x, f"0{m}b"))
        if forced_isomorphism(p, a) is not None:
            partner, isomorphic = x, True
        else:
            partner = x ^ extremes
            if x < partner:
                isomorphic = _census_entry(p, a, iso_budget)
            else:
                isomorphic = rows[partner].isomorphic
        tourn = _assigns_tournaments(p, a)
        rows.append(CensusRow(a.bit_string, tourn, isomorphic, min(x, partner)))
    return CensusTable(p, tuple(rows))
