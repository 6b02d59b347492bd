"""Theorem 1 and its digraph pairs up to order 2**33, by a digit automaton.

Theorem 1 is the identity plain(i, j) = star(sigma_k(i), sigma_k(j)) over
the p * (p-1)**2 triples with i, j != k.  With a = i - 1, b = k - 1 and
c = j - 1, every term of it is read off the binary digits:

* an entry is its class-table cell (``blocks._CLASS_TABLE``): the
  residues mod 4 of its row and column and the class of the block offset
  D = (c >> 2) - (a >> 2), which the lowest one of D and the bit above it
  fix (``weight_matrix._offset_class``);
* sigma_k(i) - 1 keeps the bits of a up to the lowest bit L where a and b
  differ and complements those above it; below bit 2 it is the low-residue
  table as ``deletion_maps._sigma_closed_form`` reads it out of
  ``_SIGMA4`` (``blocks._read_residues``).

The engine, ``_walk``, reads (a, b, c) least significant digit first: one
layer of the three residues mod 4, then one layer per block bit, under a
rule that it takes as an argument (the residue step, the block step and
the final read).  Theorem 1's rule is ``_LevelRule``.  A state
holds whether a != b and c != b have been seen (a bit of sigma is
complemented exactly when its side has seen one), the borrows of
D = C - A and of D' = sigma(C) - sigma(A) for the block parts C and A, and
for each side of the identity the status of its offset (zero so far,
pending, or resolved) with either its residue pair or, once resolved, its
class-table value.  An offset whose lowest one is block bit x - 1 resolves
at block bit x; one still pending after the top layer takes the final
borrow, the sign, as that bit.  Each layer maps every state under every
letter at once, as numpy arrays, and keeps the distinct codes (a sort and
a neighbour compare: ``np.unique`` would import ``numpy.ma``).  The reachable
sets stay near a thousand states, so the verdict costs O(log p) array
steps of that size, a few milliseconds at every accepted order.  The
class table holds the block offsets up to +-2**30, so orders up to 2**33
(``blocks._CLASS_TABLE_ORDER_LIMIT``); the rule refuses larger
ones with a ValueError.

A final state holds the level of each side.  ``decide_hypomorphisms``
gives one report per table of ``level_tables``, theorem 1's first, and
each reads the two levels through its table: theorem 1 the levels
themselves, each digraph pair the bits its assignment gives them, which
two levels may share.  A level beyond a bit table's +-(n+1) has no bit and fails
the pair's report.

The same layers, walked over a plane of the letters (``_plane``), decide
two more checks.  At a = b the starred row map is the identity (no
difference is seen, and the residue table is a on its diagonal), so lemma
3 (``hypomorphism_verifier.check_lemma3``) reads star(i, sigma_i(j)) on
the plane b = a and star(sigma_j(i), j) on b = c, and the point-1 level
check (``digraph_builder._point1_pairs``) reads the point-1 map extended
by fixing point 1 on b = 0.  Under a rule of its own that reads only
sigma's closed form, the engine decides lemma 2
(``deletion_maps.check_lemma2``).

The class table, ``_offset_class`` and ``_SIGMA4`` are read on every call,
so the automaton decides the identities of the tables that ``entry_values``
and ``sigma_values`` read at that moment, faults included.  The command
line runs it at every order it accepts; the test suite holds it field by
field to the dense deletion sweep (``deletion_maps._deletion_sweep``) of
the level matrices read through each table of ``level_tables``.
"""

from __future__ import annotations

import numpy as np

from recon_census import deletion_maps, weight_matrix
from recon_census.blocks import _read_residues
from recon_census.digraph_builder import _bit_lut, tournament_assignment, variant_assignment
from recon_census.report import VerificationReport
from recon_census.weight_matrix import MatrixVariant, order_exponent

__all__ = ["decide_hypomorphisms", "level_tables"]

# The identity level table of the int8 levels: entry v, counted from the
# end where v < 0 as numpy indexes, holds v itself.
_INT8_IDENTITY = np.arange(256, dtype=np.uint8).view(np.int8)

# State code fields: bit 0 and 1 say a != b and c != b have been seen, bits
# 2 and 3 hold the borrows of the plain and the starred offset, and each
# side has a 10-bit field at _FIELD[side]: its status (zero, pending or
# resolved) in the low 2 bits and its payload above them, the residue pair
# 4r + c until the offset resolves and its class-table value (a byte) after.
_ZERO, _PENDING, _RESOLVED = 0, 1, 2
_FIELD = (4, 14)
_SIDES = (MatrixVariant.PLAIN, MatrixVariant.STAR)

# The letters of a block layer, bit l of (a, b, c) for letter l = 4a + 2b + c,
# and of the residue layer, digit l of (a, b, c) mod 4 for l = 16a + 4b + c.
_BIT_LETTERS = np.array(np.unravel_index(np.arange(8), (2, 2, 2)))
_RESIDUE_LETTERS = np.array(np.unravel_index(np.arange(64), (4, 4, 4)))


class _LevelRule:
    """Theorem 1's rule for ``_walk`` at order p, over the tables as the
    library reads them now: the residue step, the block step and the
    final read, which gives each final state its plain and starred level."""

    def __init__(self, p: int):
        self.n = order_exponent(p)
        self.tables = [weight_matrix._class_blocks(v).reshape(-1) for v in _SIDES]
        # rows[x, d]: the class of an offset whose lowest one is block bit
        # x - 1 and whose bit x is d, x >= 1; row 0 is never selected
        reached = weight_matrix._reached_rows(p)
        self.zero_row = int(reached[0])
        self.rows = np.concatenate([reached[:1], reached]).reshape(-1, 2)
        self.low = np.array(_read_residues(), dtype=np.int64)

    def value(self, side: int, row, pair):
        """Class-table values of ``row`` at residue pairs ``pair``, as bytes."""
        return self.tables[side][row << 4 | pair & 15].astype(np.int64) & 0xFF

    def residue(self, letters: np.ndarray) -> np.ndarray:
        """The states after the residue layer, one per letter: offsets zero so far."""
        a, b, c = letters
        sa, sc = self.low[b, a], self.low[b, c]
        code = (a != b) | (c != b) << 1
        for field, pair in zip(_FIELD, (a << 2 | c, sa << 2 | sc)):
            code |= (pair << 2 | _ZERO) << field
        return code[None, :]

    def block(self, states: np.ndarray, x: int, letters: np.ndarray) -> np.ndarray:
        """Next codes of every state under each letter of block bit x: (states, letters)."""
        s = states[:, None]
        a, b, c = letters
        seen_a, seen_c = s & 1, s >> 1 & 1
        out = seen_a | a ^ b | (seen_c | c ^ b) << 1
        # the digits whose difference is each side's offset: sigma complements
        # the bits of its side above the lowest one differing from b
        for side, (hi, lo) in enumerate(((c, a), (c ^ seen_c, a ^ seen_a))):
            borrow = s >> 2 + side & 1
            d = hi ^ lo ^ borrow
            borrow = (~hi & lo | ~(hi ^ lo) & borrow) & 1
            field = s >> _FIELD[side] & 0x3FF
            status, payload = field & 3, field >> 2
            # read only where pending, which is never at x = 0
            resolved = _RESOLVED | self.value(side, self.rows[x][d], payload) << 2
            field = np.where(
                status == _ZERO,
                payload << 2 | d,  # _PENDING exactly when d is the first one
                np.where(status == _PENDING, resolved, field),
            )
            # a resolved offset reads no more borrows
            borrow &= (field & 3) != _RESOLVED
            out = out | borrow << 2 + side | field << _FIELD[side]
        return out

    def final(self, states: np.ndarray) -> list[np.ndarray]:
        """The plain and the starred level of each final state, as int8."""
        values = []
        for side in range(2):
            borrow = states >> 2 + side & 1
            field = states >> _FIELD[side] & 0x3FF
            status, payload = field & 3, field >> 2
            # pending after the top layer: the final borrow is the bit above
            row = np.where(status == _ZERO, self.zero_row, self.rows[self.n - 2][borrow])
            value = np.where(status == _RESOLVED, payload, self.value(side, row, payload))
            # a byte; level tables are indexed by the signed level
            values.append(value.astype(np.uint8).view(np.int8))
        return values


def level_tables(p: int) -> dict[str, np.ndarray]:
    """Each report's level table at order p, by name in report order: the
    identity for ``theorem1``, and the bit tables of the tournament and,
    from p = 8, the variant assignment for the digraph pairs (a digraph is
    its level matrix read through its assignment, ``apply_assignment``)."""
    n = order_exponent(p)
    luts = {
        "theorem1": _INT8_IDENTITY,
        "hypo-sigma-tournament": _bit_lut(tournament_assignment(n)),
    }
    if p >= 8:
        luts["hypo-sigma-variant"] = _bit_lut(variant_assignment(n))
    return luts


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``codes``."""
    flat = np.sort(codes, axis=None)
    keep = np.empty(flat.size, dtype=bool)
    keep[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]


def _plane(where) -> tuple[np.ndarray, np.ndarray]:
    """The residue and the bit letters (a, b, c) where ``where(a, b, c)`` holds."""
    return tuple(letters[:, where(*letters)] for letters in (_RESIDUE_LETTERS, _BIT_LETTERS))


def _walk(p: int, rule, residue_letters=_RESIDUE_LETTERS, bit_letters=_BIT_LETTERS):
    """The layers of order p under ``rule`` over the letters given (per
    layer the states, their next codes and the letters), the final states,
    and what the rule reads off them.

    A rule has three steps: ``residue(letters)``, the codes that the
    residue letters lead to from the start state, as a (1, letters) array;
    ``block(states, x, letters)``, the next code of each state under each
    letter of block bit x, as a (states, letters) array; and
    ``final(states)``, the arrays it reads off the final states.
    """
    n = order_exponent(p)
    start = np.zeros(1, dtype=np.int64)
    layers = [(start, rule.residue(residue_letters), residue_letters)]
    for x in range(n - 2):
        states = _distinct(layers[-1][1])
        layers.append((states, rule.block(states, x, bit_letters), bit_letters))
    final = _distinct(layers[-1][1])
    return layers, final, *rule.final(final)


def _plain_offset(final: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The status of each final state's plain offset and its residues (r, c),
    unless resolved: zero with r = c is i = j, and pending with r = c is
    |i - j| = p/2."""
    field = final >> _FIELD[0] & 0x3FF
    return field & 3, field >> 4 & 3, field >> 2 & 3


def decide_hypomorphisms(p: int) -> list[VerificationReport]:
    """Theorem 1 and both digraph pairs at order p, exact at every order up
    to 2**33, the class table's reach (ValueError above it): one report per
    table of ``level_tables(p)``, all read off one run of the layers.  A
    failure is the first (k, i, j) in k order, then row-major (i, j), with
    its two levels read through the report's table.

    A table of length L reaches the levels of magnitude up to L // 2.  A
    level beyond them has no entry (a bit table would wrap it onto another
    level's bit), so a triple that reads one fails that table, and its
    counterexample names the raw level.  The identity table reaches every
    int8 level, so only the pair reports see this; the check costs one
    compare per final state."""
    layers, final, plain, star = _walk(p, _LevelRule(p))
    admissible = final & 3 == 3  # i, j != k
    magnitude = np.maximum(np.abs(plain.astype(np.int16)), np.abs(star.astype(np.int16)))
    reports = []
    for name, lut in level_tables(p).items():
        outside = magnitude > len(lut) // 2
        left, right = (lut[np.where(outside, 0, levels)] for levels in (plain, star))
        bad = admissible & (outside | (left != right))
        counterexample = None
        if bad.any():
            k, i, j = _first_failure(layers, final, bad)
            si, sj = deletion_maps.sigma_values(p, k, [i, j])
            lhs = weight_matrix.entry_values(p, MatrixVariant.PLAIN, i, j)
            rhs = weight_matrix.entry_values(p, MatrixVariant.STAR, si, sj)
            counterexample = (k, i, j, _read(lut, lhs), _read(lut, rhs))
        reports.append(VerificationReport(name, p, counterexample, p * (p - 1) ** 2))
    return reports


def _read(lut: np.ndarray, level) -> int:
    """The entry of ``lut`` at ``level``, or the level itself where it lies
    beyond the table's reach (``decide_hypomorphisms``)."""
    level = int(level)
    return int(lut[level]) if abs(level) <= len(lut) // 2 else level


def _first_failure(layers, final: np.ndarray, bad: np.ndarray) -> tuple[int, int, int]:
    """The first (k, i, j), in that order, that reaches a ``bad`` final state.

    The digits of b, then of a, then of c are fixed from the top layer
    down, each to the least value from which a bad final state stays
    reachable: per variable, one forward pass of the states reachable under
    the letters still allowed and one backward pass of the states that
    still reach a bad one.
    """
    targets = [states for states, _, _ in layers[1:]] + [final]
    successors = [np.searchsorted(t, codes) for (_, codes, _), t in zip(layers, targets)]
    allowed = [np.ones(letters.shape[1], dtype=bool) for _, _, letters in layers]
    for var in (1, 0, 2):  # b = k - 1, a = i - 1, c = j - 1
        reach = [np.ones(1, dtype=bool)]
        for succ, allow, target in zip(successors, allowed, targets):
            nxt = np.zeros(target.size, dtype=bool)
            nxt[succ[reach[-1]][:, allow]] = True
            reach.append(nxt)
        goal = bad
        for t in reversed(range(len(layers))):
            digits = layers[t][2][var]
            for digit in range(digits.max() + 1):
                allow = allowed[t] & (digits == digit)
                hit = reach[t][:, None] & allow & goal[successors[t]]
                if hit.any():
                    allowed[t] = allow
                    goal = hit.any(axis=1)
                    break
    # layer 0 holds the residues, block layer t bit t + 1
    a, b, c = (
        sum(int(letters[var][allow][0]) << (t + 1 if t else 0)
            for t, ((_, _, letters), allow) in enumerate(zip(layers, allowed)))
        for var in range(3)
    )
    return b + 1, a + 1, c + 1
