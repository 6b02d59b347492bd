"""Theorem 1 at every order, decided by a finite automaton over binary digits.

Theorem 1 is the identity plain(i, j) = star(sigma_k(i), sigma_k(j)) over
the p * (p-1)**2 triples with i, j != k.  With a = i - 1, b = k - 1 and
c = j - 1, every term of it is read off the binary digits:

* an entry is its class-table cell (``weight_matrix._CLASS_TABLE``): the
  residues mod 4 of its row and column and the class of the block offset
  D = (c >> 2) - (a >> 2), which the lowest one of D and the bit above it
  fix (``weight_matrix._offset_class``);
* sigma_k(i) - 1 keeps the bits of a up to the lowest bit L where a and b
  differ and complements those above it; below bit 2 it is the low-residue
  table that ``deletion_maps._sigma_closed_form`` derives from
  ``_SIGMA4``.

``decide_theorem1`` reads (a, b, c) least significant digit first: one
layer of the three residues mod 4, then one layer per block bit.  A state
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
steps of that size, a few milliseconds at every accepted order.

The class table, ``_offset_class`` and ``_SIGMA4`` are read on every call,
so the automaton decides the identity of the tables that ``entry_values``
and ``sigma_values`` read at that moment, faults included.  Through
p = 512 the command line keeps the exhaustive deletion sweep
(``hypomorphism_verifier.check_theorem1``); the test suite checks that the
two reports agree field for field there.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from recon_census import deletion_maps, weight_matrix
from recon_census.report import VerificationReport
from recon_census.weight_matrix import MatrixVariant, order_exponent

__all__ = ["decide_theorem1"]

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


class _Rule:
    """The tables of the identity as the library reads them now."""

    def __init__(self, n: int):
        self.tables = [weight_matrix._CLASS_TABLE[v].reshape(-1) for v in _SIDES]
        # rows[x, d]: the class of an offset whose lowest one is block bit
        # x - 1 and whose bit x is d, x >= 1; row 0 is never read
        x = np.arange(n - 1)[:, None]
        lowest = np.left_shift(1, np.maximum(x - 1, 0))
        offsets = (lowest * (1 + 2 * np.arange(2))).astype(np.int32)
        self.rows = weight_matrix._offset_class(offsets)
        self.zero_row = int(weight_matrix._offset_class(np.zeros(1, np.int32))[0])
        r = np.arange(4)
        low = deletion_maps._SIGMA4 - 1
        low[r, r] = r
        self.low = low.astype(np.int64)

    def value(self, side: int, row, pair):
        """Class-table values of ``row`` at residue pairs ``pair``, as bytes."""
        return self.tables[side][row << 4 | pair & 15].astype(np.int64) & 0xFF


def _residue_codes(rule: _Rule) -> np.ndarray:
    """The states after the residue layer, one per letter: offsets zero so far."""
    a, b, c = _RESIDUE_LETTERS
    sa, sc = rule.low[b, a], rule.low[b, c]
    code = (a != b) | (c != b) << 1
    for field, pair in zip(_FIELD, (a << 2 | c, sa << 2 | sc)):
        code |= (pair << 2 | _ZERO) << field
    return code[None, :]


def _block_codes(states: np.ndarray, x: int, rule: _Rule) -> np.ndarray:
    """Next codes of every state under each letter of block bit x: (states, 8)."""
    s = states[:, None]
    a, b, c = _BIT_LETTERS
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
        resolved = _RESOLVED | rule.value(side, rule.rows[x][d], payload) << 2
        field = np.where(
            status == _ZERO,
            payload << 2 | d,  # _PENDING exactly when d is the first one
            np.where(status == _PENDING, resolved, field),
        )
        # a resolved offset reads no more borrows
        borrow &= (field & 3) != _RESOLVED
        out = out | borrow << 2 + side | field << _FIELD[side]
    return out


def _bad_states(states: np.ndarray, n: int, rule: _Rule) -> np.ndarray:
    """Which final states hold a triple with i, j != k and lhs != rhs."""
    values = []
    for side in range(2):
        borrow = states >> 2 + side & 1
        field = states >> _FIELD[side] & 0x3FF
        status, payload = field & 3, field >> 2
        # pending after the top layer: the final borrow is the bit above
        row = np.where(status == _ZERO, rule.zero_row, rule.rows[n - 2][borrow])
        values.append(np.where(status == _RESOLVED, payload, rule.value(side, row, payload)))
    return (states & 3 == 3) & (values[0] != values[1])


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``codes``."""
    flat = np.sort(codes, axis=None)
    keep = np.empty(flat.size, dtype=bool)
    keep[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]


def decide_theorem1(p: int) -> VerificationReport:
    """Theorem 1 at order p, exact at every order: the report of
    ``hypomorphism_verifier.check_theorem1``.

    ``checked`` is p * (p-1)**2 as a Python int, and a failure reports the
    first failing (k, i, j) in k order and then row-major (i, j), with its
    plain and starred entries.
    """
    n = order_exponent(p)
    rule = _Rule(n)
    layers = []  # per layer: the states, their next codes and the letters
    states = np.zeros(1, dtype=np.int64)
    codes = _residue_codes(rule)
    layers.append((states, codes, _RESIDUE_LETTERS))
    for x in range(n - 2):
        states = _distinct(codes)
        codes = _block_codes(states, x, rule)
        layers.append((states, codes, _BIT_LETTERS))
    final = _distinct(codes)
    bad = _bad_states(final, n, rule)
    counterexample = _first_failure(p, layers, final, bad) if bad.any() else None
    return VerificationReport("theorem1", p, counterexample, p * (p - 1) ** 2)


def _first_failure(p: int, layers, final: np.ndarray, bad: np.ndarray) -> Optional[tuple]:
    """The first failing (k, i, j, lhs, rhs) in (k, i, j) order.

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
    k, i, j = b + 1, a + 1, c + 1
    lhs = weight_matrix.entry_values(p, MatrixVariant.PLAIN, i, j)
    rhs = weight_matrix.entry_values(
        p,
        MatrixVariant.STAR,
        deletion_maps.sigma_values(p, k, i),
        deletion_maps.sigma_values(p, k, j),
    )
    return (k, i, j, int(lhs), int(rhs))
