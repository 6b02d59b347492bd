"""Per-point loop forms of lemma 2 (a)-(c) and lemma 3: test oracles.

``check_lemma2`` and ``check_lemma3`` scan their grids in masked row
blocks (``weight_matrix._first_cell``).  These are the loops they
replaced, one numpy step per deletion or per point, fed the same map
table and matrices, so a test can require the two to report the same
verdict, counterexample and count.
"""

import numpy as np

from recon_census.deletion_maps import _lemma2_d
from recon_census.report import VerificationReport


def lemma2_loops(p, cols):
    """``check_lemma2(p)`` over the map table ``cols``; (d) is ``_lemma2_d``."""
    h = p // 2
    points = np.arange(1, p + 1, dtype=np.int32)
    checked = 0
    counterexample = None

    # (a) column halving
    for k in range(1, h + 1):
        a, b = cols[k - 1], cols[k + h - 1]
        mask = np.ones(p, dtype=bool)
        mask[[k - 1, k + h - 1]] = False
        checked += p - 2
        if counterexample is None:
            bad = np.nonzero((a != b) & mask)[0]
            if bad.size:
                i = int(bad[0]) + 1
                counterexample = (k, i, 0, int(a[i - 1]), int(b[i - 1]))

    # (b) half-shift equivariance
    low = np.arange(1, h + 1, dtype=np.int32)
    for k in range(1, p + 1):
        t = cols[k - 1]
        valid = (low != k) & (low + h != k)
        checked += int(valid.sum())
        if counterexample is None:
            lhs = t[low + h - 1]
            rhs = t[low - 1] - h
            bad = np.nonzero((lhs != rhs) & valid)[0]
            if bad.size:
                i = int(low[bad[0]])
                counterexample = (k, i + h, 0, int(lhs[bad[0]]), int(rhs[bad[0]]))

    # (c) distance-p/2 detection under deletion of an endpoint
    for i in range(1, p + 1):
        t = cols[i - 1]
        mask = points != i
        checked += p - 1
        if counterexample is None:
            plus_bad = ((points == i + h) != (t == i + h)) & mask
            minus_bad = ((points == i - h) != (t == i - h)) & mask
            bad = np.nonzero(plus_bad | minus_bad)[0]
            if bad.size:
                j = int(points[bad[0]])
                counterexample = (i, i, j, int(t[j - 1]), j)

    # (d) distance-p/2 preservation under every deletion
    checked += p * (p - 1) * (p - 1)
    if counterexample is None:
        counterexample = _lemma2_d(p, cols)

    return VerificationReport("lemma2", p, counterexample, checked)


def lemma3_loops(p, plain, star, tables):
    """``check_lemma3(p)`` over the (p, p) matrices and the map table given."""
    h = p // 2
    plain = np.asarray(plain).astype(np.int32)
    star = np.asarray(star).astype(np.int32)
    points = np.arange(1, p + 1, dtype=np.int32)
    checked = 0
    counterexample = None

    def signs_for(fixed, others):
        if p == 4:
            return np.full(others.shape, -1, dtype=np.int32)
        return np.where(np.abs(others - fixed) == h, -1, 1)

    # first equality: map the column by the deletion at the row point
    for i in range(1, p + 1):
        t = tables[i - 1]
        js = points[points != i]
        lhs = plain[i - 1, js - 1]
        rhs = signs_for(i, js) * star[i - 1, t[js - 1] - 1]
        checked += p - 1
        if counterexample is None:
            bad = np.nonzero(lhs != rhs)[0]
            if bad.size:
                j = int(js[bad[0]])
                counterexample = (0, i, j, int(lhs[bad[0]]), int(rhs[bad[0]]))

    # second equality: map the row by the deletion at the column point
    for j in range(1, p + 1):
        t = tables[j - 1]
        is_ = points[points != j]
        lhs = plain[is_ - 1, j - 1]
        rhs = signs_for(j, is_) * star[t[is_ - 1] - 1, j - 1]
        checked += p - 1
        if counterexample is None:
            bad = np.nonzero(lhs != rhs)[0]
            if bad.size:
                i = int(is_[bad[0]])
                counterexample = (0, i, j, int(lhs[bad[0]]), int(rhs[bad[0]]))

    return VerificationReport("lemma3", p, counterexample, checked)
