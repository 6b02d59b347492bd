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
``deletion_maps.extend_sigma_p1``, after checking that the assignment
gives equal bits to both levels of every distinct off-diagonal level pair
(plain(i, j), star(ext(i), ext(j))), collected once per order).
Conjugating by the half-swap involution exchanges the two extreme levels
and nothing else (``swap_involution`` verifies this), which pairs up
assignments into orbits yielding the same digraph pair.
``assignment_census`` enumerates every proper assignment at small orders
and tabulates which ones yield non-isomorphic pairs.  It settles the rows
with equal extreme bits through ``forced_isomorphism`` and runs one
isomorphism search per remaining swap orbit (64 at p = 8, 256 at p = 16,
in the calling process); the other member of the orbit copies the
verdict.
``_assignment_census_reference`` searches every row and is the census's
test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np

from recon_census.deletion_maps import _permuted, extend_sigma_p1
from recon_census.errors import ContradictionError
from recon_census.weight_matrix import (
    MatrixVariant,
    WeightedMatrix,
    _first_cell,
    _offset_case_table,
    _row_blocks,
    _text_grid,
    build_dense,
    entry_grid,
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
    "constant_assignment",
    "forced_isomorphism",
    "standard_pair",
    "swap_involution",
    "threshold_scores",
    "tournament_assignment",
    "variant_assignment",
    "variant_pair",
]

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


def constant_assignment(n: int, bit: int) -> BinaryAssignment:
    return BinaryAssignment(n, (int(bit),) * (2 * (n + 1)))


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
        a = self.adjacency
        both = a + a.T
        off = ~np.eye(self.order, dtype=bool)
        return bool(np.all(both[off] == 1))

    def delete_point(self, k: int) -> "Digraph":
        """Point-deleted subgraph, remaining points relabeled order-preservingly."""
        if not 1 <= k <= self.order:
            raise IndexError(f"point must lie in 1..{self.order}, got {k}")
        trimmed = np.delete(np.delete(self.adjacency, k - 1, axis=0), k - 1, axis=1)
        return Digraph(self.order - 1, np.ascontiguousarray(trimmed))

    def relabel(self, perm) -> "Digraph":
        """Digraph whose arc (i, j) mirrors this one's arc (perm(i), perm(j))."""
        sel = np.asarray(perm, dtype=np.int64) - 1
        return Digraph(self.order, _permuted(self.adjacency, sel))

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

    def to_csv(self) -> str:
        return _text_grid(self.order, self.adjacency.__getitem__, ("0", "1"), ",")

    def to_dot(self, name: str = "G") -> str:
        lines = [f"digraph {name} {{"]
        lines += [f"  {i};" for i in range(1, self.order + 1)]
        rows, cols = np.nonzero(self.adjacency)
        lines += [f"  {i + 1} -> {j + 1};" for i, j in zip(rows, cols)]
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_digraph6(self) -> str:
        bits = self.adjacency.reshape(-1)
        pad = (-bits.size) % 6
        if pad:
            bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
        groups = bits.reshape(-1, 6) @ (1 << np.arange(5, -1, -1, dtype=np.int32))
        body = (groups + 63).astype(np.uint8).tobytes().decode("ascii")
        return "&" + _encode_count(self.order) + body

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
    first = ord(text[pos]) - 63
    if first != 63:
        return first, pos + 1
    if ord(text[pos + 1]) - 63 != 63:
        chunk = [ord(c) - 63 for c in text[pos + 1 : pos + 4]]
        return (chunk[0] << 12) | (chunk[1] << 6) | chunk[2], pos + 4
    chunk = [ord(c) - 63 for c in text[pos + 2 : pos + 8]]
    value = 0
    for c in chunk:
        value = (value << 6) | c
    return value, pos + 8


def threshold_scores(p: int, variant: MatrixVariant) -> np.ndarray:
    """Scores of the canonical tournament at order p without materializing it.

    An entry depends only on its block offset d and its residues (r, c), so
    the positive entries are counted once per (d, r) in the per-order class
    table and summed cumulatively over d.  A row in block b reaches exactly
    the offsets -b..p/4-1-b, so its score is a difference of two prefix
    sums: O(p) work and memory in total.
    """
    order_exponent(p)
    nb = p // 4
    positive = (_offset_case_table(p, variant) > 0).sum(axis=2, dtype=np.int64)
    cum = np.zeros((2 * nb, 4), dtype=np.int64)
    np.cumsum(positive, axis=0, out=cum[1:])
    b = np.arange(nb)
    return (cum[2 * nb - 1 - b] - cum[nb - 1 - b]).reshape(p)


def _threshold_scores_reference(p: int, variant: MatrixVariant) -> np.ndarray:
    """Chunked O(p**2) gather; cross-check oracle for ``threshold_scores``.

    Counts positive entries per row through ``entry_grid``, one row block
    (``_row_blocks``) at a time, so memory stays bounded as time grows as p**2.
    """
    order_exponent(p)
    idx = np.arange(1, p + 1, dtype=np.int32)
    return np.concatenate(
        [(entry_grid(p, variant, idx[b]) > 0).sum(axis=1) for b in _row_blocks(p, p)]
    )


def _bit_lut(a: BinaryAssignment) -> np.ndarray:
    """The bit of each level at slot level + n + 1; level 0 gets 0."""
    top = a.order_n + 1
    lut = np.zeros(2 * top + 1, dtype=np.uint8)
    for level, bit in a.items():
        lut[level + top] = bit
    return lut


def apply_assignment(m: WeightedMatrix, a: BinaryAssignment) -> Digraph:
    """Replace each off-diagonal entry by its assigned bit; no loops."""
    n = m.exponent
    if a.order_n != n:
        raise ValueError(
            f"assignment covers levels up to {a.order_n + 1}, matrix needs {n + 1}"
        )
    adj = _bit_lut(a)[m.entries.astype(np.int16) + (n + 1)]
    np.fill_diagonal(adj, 0)
    return Digraph(m.order, adj)


def _assigned_pair(p: int, a: BinaryAssignment) -> tuple[Digraph, Digraph]:
    """One assignment applied to the cached plain and starred matrices."""
    return (
        apply_assignment(build_dense(p, MatrixVariant.PLAIN), a),
        apply_assignment(build_dense(p, MatrixVariant.STAR), a),
    )


def standard_pair(p: int) -> tuple[Digraph, Digraph]:
    """The canonical tournament pair at order p (positive entries become arcs)."""
    g, h = _assigned_pair(p, tournament_assignment(order_exponent(p)))
    if not (g.is_tournament() and h.is_tournament()):
        raise ContradictionError("canonical pair failed the tournament check")
    return g, h


def variant_pair(p: int) -> tuple[Digraph, Digraph]:
    """The second digraph pair at order p >= 8 (not tournaments)."""
    n = order_exponent(p)
    if p < 8:
        raise ValueError(f"variant_pair requires p >= 8, got {p}")
    return _assigned_pair(p, variant_assignment(n))


def _is_arc_preserving(g: Digraph, h: Digraph, perm) -> bool:
    """Whether the 1-based point map ``perm`` carries every arc of g onto h."""
    sel = np.asarray(perm, dtype=np.int64) - 1
    return np.array_equal(g.adjacency, _permuted(h.adjacency, sel))


class _LevelTable(NamedTuple):
    witness: np.ndarray  # extend_sigma_p1(p), read-only
    pairs: np.ndarray  # (k, 2): distinct (plain(i, j), star(ext(i), ext(j))), i != j
    levels: np.ndarray  # the levels occurring off the diagonal


@lru_cache(maxsize=1)
def _level_table(p: int) -> _LevelTable:
    """The per-order table that decides forced rows and tournament rows.

    The pairs record, for every off-diagonal cell, which level of the
    plain matrix the extended point-1 mapping ``ext`` sends onto which
    level of the starred matrix, so ``ext`` carries the assigned plain
    digraph onto the assigned starred one exactly when every pair gets
    equal bits.  A ``WeightedMatrix`` is antisymmetric, so arcs i -> j
    and j -> i come from levels v and -v.  The pairs are counted from
    the dense matrices one ``weight_matrix._row_blocks`` block at a time,
    the p diagonal cells' (0, 0) taken off again; only the last order is
    kept.
    """
    top = order_exponent(p) + 1
    width = 2 * top + 1
    ext = extend_sigma_p1(p)
    ext.setflags(write=False)
    plain = build_dense(p, MatrixVariant.PLAIN).entries
    star = build_dense(p, MatrixVariant.STAR).entries
    counts = np.zeros(width * width, dtype=np.int64)
    for block in _row_blocks(p, p):
        starred = star.take(ext[block] - 1, axis=0).take(ext - 1, axis=1)
        codes = (plain[block].astype(np.int16) + top) * width + (starred + top)
        counts += np.bincount(codes.ravel(), minlength=width * width)
    counts[top * width + top] -= p
    counts = counts.reshape(width, width)
    pairs = np.argwhere(counts) - top
    levels = np.flatnonzero(counts.any(axis=1) | counts.any(axis=0)) - top
    for arr in (pairs, levels):
        arr.setflags(write=False)
    return _LevelTable(ext, pairs, levels)


def forced_isomorphism(p: int, a: BinaryAssignment) -> Optional[np.ndarray]:
    """Witness permutation when both extreme levels get the same bit, else None.

    When the assignment gives +-(n+1) equal bits, the extended point-1
    mapping (``extend_sigma_p1``, slot i - 1 holding the image of point i)
    must carry the assigned plain digraph onto the assigned starred
    digraph.  That is checked before the witness is returned, one level
    pair of ``_level_table`` at a time (the arc-by-arc check grouped by
    level), and a failure is a fatal internal error.  The witness is the
    table's read-only array.
    """
    n = order_exponent(p)
    if p < 8:
        raise ValueError(f"forced_isomorphism requires p >= 8, got {p}")
    if a.order_n != n:
        raise ValueError("assignment exponent does not match the order")
    if a.value_for(n + 1) != a.value_for(-(n + 1)):
        return None
    if not _witness_carries(p, a):
        raise ContradictionError(
            f"extended point-1 mapping is not an isomorphism at p={p} "
            f"for assignment {a.bit_string}"
        )
    return _level_table(p).witness


def _witness_carries(p: int, a: BinaryAssignment) -> bool:
    """Whether ``extend_sigma_p1(p)`` carries a's plain digraph onto its
    starred one: every level pair of ``_level_table`` gets equal bits."""
    bit = _bit_lut(a)[_level_table(p).pairs + (order_exponent(p) + 1)]
    return bool(np.array_equal(bit[:, 0], bit[:, 1]))


def _assigns_tournaments(p: int, a: BinaryAssignment) -> bool:
    """Whether the assignment's plain and starred digraphs are tournaments.

    The matrices are antisymmetric (``WeightedMatrix`` checks it), so
    this holds exactly when every level occurring off the diagonal gets
    a different bit from its negation.
    """
    top = order_exponent(p) + 1
    lut = _bit_lut(a)
    levels = _level_table(p).levels
    return bool(np.all(lut[levels + top] != lut[top - levels]))


def swap_involution(p: int) -> np.ndarray:
    """The half-swap permutation, verified to exchange only the extreme levels.

    Returns tau with tau(i) = i + p/2 for i <= p/2 and i - p/2 above.
    Conjugating either matrix by tau must swap the levels n+1 and -(n+1)
    and fix every other level; failure is a fatal internal error.  Each
    variant is one masked row-block scan (``weight_matrix._first_cell``)
    of the cached dense matrix.
    """
    n = order_exponent(p)
    if p < 8:
        raise ValueError(f"swap_involution requires p >= 8, got {p}")
    h = p // 2
    tau = np.concatenate(
        [np.arange(h + 1, p + 1, dtype=np.int32), np.arange(1, h + 1, dtype=np.int32)]
    )
    top = n + 1
    idx = tau - 1
    for variant in (MatrixVariant.PLAIN, MatrixVariant.STAR):
        e = build_dense(p, variant).entries

        def unswapped(rows):
            conjugated = e.take(idx[rows], axis=0).take(idx, axis=1)
            block = e[rows]
            return conjugated != np.where(np.abs(block) == top, -block, block)

        if _first_cell(p, p, unswapped) is not None:
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

    @cached_property
    def _by_bits(self) -> dict[str, CensusRow]:
        return {row.assignment_bits: row for row in self.rows}

    def row_for(self, a) -> CensusRow:
        bits = a.bit_string if isinstance(a, BinaryAssignment) else str(a)
        return self._by_bits[bits]

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


def _census_entry(p: int, bits: str, budget: int) -> Optional[bool]:
    """Search verdict for one row: None when the search exhausted the budget."""
    # imported here to avoid a module cycle with the isomorphism engine
    from recon_census.iso_engine import IsoStatus, are_isomorphic

    a = assignment_from_bits(order_exponent(p), bits)
    verdict = are_isomorphic(*_assigned_pair(p, a), budget=budget)
    return {
        IsoStatus.ISOMORPHIC: True,
        IsoStatus.NON_ISOMORPHIC: False,
        IsoStatus.UNDECIDED: None,
    }[verdict.status]


def _swap_partner_bits(n: int, bits: str) -> str:
    """Bit string of the assignment with the two extreme levels' bits exchanged."""
    chars = list(bits)
    chars[n], chars[2 * n + 1] = chars[2 * n + 1], chars[n]
    return "".join(chars)


def _census_bits(p: int) -> list[str]:
    """Every proper assignment's bit string at a census order, ascending."""
    if p not in CENSUS_ORDERS:
        orders = " and ".join(map(str, CENSUS_ORDERS))
        raise ValueError(f"census is budget-bounded to orders {orders}, got {p}")
    m = 2 * (order_exponent(p) + 1)
    return [format(x, f"0{m}b") for x in range(1 << m)]


def _orbit_id(n: int, bits: str) -> int:
    return min(int(bits, 2), int(_swap_partner_bits(n, bits), 2))


def assignment_census(p: int, iso_budget: int = DEFAULT_ISO_BUDGET) -> CensusTable:
    """Tabulate every proper assignment at an order p in ``CENSUS_ORDERS``.

    Each row records whether the assigned pair are tournaments and
    whether they are isomorphic (None when the search exhausted
    ``iso_budget``).  ``orbit_id`` is the smaller bit-string value of the
    row and its extreme-level-swap partner, which yield the same digraph
    pair up to the half-swap relabeling.

    Rows are decided from the two symmetries first.  A row whose extreme
    levels get equal bits is isomorphic by ``forced_isomorphism``, with
    no search.  Of the other rows, only each orbit's first row (its
    ``orbit_id``) is searched, in the calling process, and its partner
    copies the verdict.
    Both per-order checks (``swap_involution`` and the level table) run
    before any search.  The tournament flag is read from the levels.
    """
    all_bits = _census_bits(p)
    n = order_exponent(p)
    # partners may copy verdicts only because this identity holds; it raises
    # otherwise
    swap_involution(p)
    verdict: dict[str, Optional[bool]] = {}
    searched = []
    for bits in all_bits:
        if forced_isomorphism(p, assignment_from_bits(n, bits)) is not None:
            verdict[bits] = True
        elif int(bits, 2) == _orbit_id(n, bits):
            searched.append(bits)
    for bits in searched:
        verdict[bits] = _census_entry(p, bits, iso_budget)
    rows = []
    for bits in all_bits:
        tourn = _assigns_tournaments(p, assignment_from_bits(n, bits))
        decided = bits if bits in verdict else _swap_partner_bits(n, bits)
        rows.append(CensusRow(bits, tourn, verdict[decided], _orbit_id(n, bits)))
    return CensusTable(p, tuple(rows))


def _assignment_census_reference(
    p: int, iso_budget: int = DEFAULT_ISO_BUDGET
) -> CensusTable:
    """Every row searched and its tournament flag read off its digraphs.

    The census without its symmetries: the cross-check oracle of
    ``assignment_census``.
    """
    n = order_exponent(p)
    rows = []
    for bits in _census_bits(p):
        g, h = _assigned_pair(p, assignment_from_bits(n, bits))
        rows.append(
            CensusRow(
                bits,
                g.is_tournament() and h.is_tournament(),
                _census_entry(p, bits, iso_budget),
                _orbit_id(n, bits),
            )
        )
    return CensusTable(p, tuple(rows))
