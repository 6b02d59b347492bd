"""The slow forms of the library's fast paths: test oracles.

Each function here computes what one fast path computes, the long way, so
a test can require the two to give the same verdict, counterexample and
count:

* ``lemma2_loops`` and ``lemma3_loops``: the per-point loops that the
  masked row-block scans of ``check_lemma2`` and ``check_lemma3``
  (``weight_matrix._first_cell``) replaced;
* ``check_lemma1_reference``: lemma 1 on entry grids, O(p**2);
* ``lemma2_d_reference``: lemma 2 (d) on full (p-1) x (p-1) difference
  matrices per deletion;
* ``deletion_sweep_reference``: ``_deletion_sweep`` as a block copy per
  deletion, read through each level table;
* ``sample_theorem1_reference``: ``sample_theorem1`` with one
  ``entry_at``/``sigma`` evaluation per drawn triple;
* ``threshold_scores_reference`` and ``induced_halves_mismatch_reference``:
  the two per-level steps of theorem 2 on entry grids, O(p**2), and
  ``halving_chain_reference``, which runs them level by level;
* ``assignment_census_reference``: the census with every row searched;
* ``every_relabeling_code``: an isomorphism invariant that is complete
  because it tries all p! relabelings;
* ``relabel``: a digraph with its points renamed by a permutation, which
  the census's orbit partners must equal.

Library functions are reached through their modules (``wm.entry_grid``,
``db._census_entry``, ...), so a test that patches a seam there reaches the
oracle too.
"""

import itertools

import numpy as np

import recon_census.deletion_maps as dm
import recon_census.digraph_builder as db
import recon_census.hypomorphism_verifier as hv
import recon_census.weight_matrix as wm
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


def check_lemma1_reference(p):
    """``check_lemma1(p)`` on entry grids (O(p**2)): the same report.

    (a) both half-order quadrants (top-left, bottom-right) equal the
    half-order matrix entrywise; (b)/(c) half-shifted entries flip sign
    exactly as ``sign_flip`` states; (d) the extreme levels +-(n+1) sit
    exactly at column/row offsets of p/2.  Both variants are checked;
    the first violation, if any, is reported.
    """
    n = wm.order_exponent(p)
    if p < 8:
        raise ValueError(f"check_lemma1 requires p >= 8, got {p}")
    h = p // 2
    idx = np.arange(1, h + 1, dtype=np.int32)
    everywhere = np.ones((h, h), dtype=bool)
    off = ~np.eye(h, dtype=bool)
    checked = 0
    counterexample = None

    def first_diff(lhs, rhs, rows, cols, keep):
        cell = wm._first_cell(h, h, lambda b: (lhs[b] != rhs[b]) & keep[b])
        if cell is None:
            return None
        r, c = cell
        return (0, int(rows[r]), int(cols[c]), int(lhs[r, c]), int(rhs[r, c]))

    for variant in (wm.MatrixVariant.PLAIN, wm.MatrixVariant.STAR):
        top_left = wm.entry_grid(p, variant, idx, idx)
        half = wm.entry_grid(h, variant, idx, idx)
        bottom_right = wm.entry_grid(p, variant, idx + h, idx + h)
        col_shift = wm.entry_grid(p, variant, idx, idx + h)
        row_shift = wm.entry_grid(p, variant, idx + h, idx)

        # (a) nested copies
        for big, rows, cols in (
            (top_left, idx, idx),
            (bottom_right, idx + h, idx + h),
        ):
            checked += h * h
            if counterexample is None:
                counterexample = first_diff(big, half, rows, cols, everywhere)

        # (b)/(c) half-shift sign pattern on off-diagonal pairs
        if p == 8:
            signs = np.full((h, h), -1, dtype=np.int32)
        else:
            dist = np.abs(idx[None, :] - idx[:, None])
            signs = np.where(dist == p // 4, -1, 1)
        expected = (signs * top_left.astype(np.int32)).astype(np.int8)
        for shifted, rows, cols in (
            (col_shift, idx, idx + h),
            (row_shift, idx + h, idx),
        ):
            checked += h * h - h
            if counterexample is None:
                counterexample = first_diff(shifted, expected, rows, cols, off)

        # (d) extreme levels at offset p/2
        upper = 1 if variant is wm.MatrixVariant.PLAIN else -1
        want_up = np.full(h, upper * (n + 1), dtype=np.int8)
        up = wm.entry_values(p, variant, idx, idx + h)
        down = wm.entry_values(p, variant, idx + h, idx)
        checked += 2 * h
        if counterexample is None:
            for got, want, rows, cols in (
                (up, want_up, idx, idx + h),
                (down, -want_up, idx + h, idx),
            ):
                bad = np.nonzero(got != want)[0]
                if bad.size:
                    b = int(bad[0])
                    counterexample = (
                        0,
                        int(rows[b]),
                        int(cols[b]),
                        int(got[b]),
                        int(want[b]),
                    )
                    break

    return VerificationReport("lemma1", p, counterexample, checked)


def lemma2_d_reference(p, cols):
    """``_lemma2_d(p, cols)`` with (p-1)**2 pairs compared per deletion."""
    h = p // 2
    points = np.arange(1, p + 1, dtype=np.int32)
    for k in range(1, p + 1):
        t = cols[k - 1]
        rest = points[points != k]
        imgs = t[rest - 1]
        point_diff = rest[None, :] - rest[:, None]       # j - i
        image_diff = imgs[:, None] - imgs[None, :]       # image(i) - image(j)
        bad = ((point_diff == h) != (image_diff == h)) | (
            (point_diff == -h) != (image_diff == -h)
        )
        if bad.any():
            r, c = divmod(int(np.argmax(bad)), bad.shape[1])
            return (
                k,
                int(rest[r]),
                int(rest[c]),
                int(image_diff[r, c]),
                int(point_diff[r, c]),
            )
    return None


def deletion_sweep_reference(a, b, tables, luts):
    """``_deletion_sweep(a, b, tables, luts)`` as one (p-1) x (p-1) block
    copy per deletion, read through each level table in turn."""
    p = a.shape[0]
    points = np.arange(1, p + 1, dtype=np.int32)
    checked = 0
    counterexamples = [None] * len(luts)
    for k in range(1, p + 1):
        rest = points[points != k]
        imgs = tables[k - 1][rest - 1]
        lhs_levels = a[np.ix_(rest - 1, rest - 1)]
        rhs_levels = b[np.ix_(imgs - 1, imgs - 1)]
        checked += (p - 1) * (p - 1)
        for t, lut in enumerate(luts):
            lhs, rhs = lut[lhs_levels], lut[rhs_levels]
            if counterexamples[t] is None and not np.array_equal(lhs, rhs):
                r, c = divmod(int(np.argmax(lhs != rhs)), p - 1)
                counterexamples[t] = (
                    k,
                    int(rest[r]),
                    int(rest[c]),
                    int(lhs[r, c]),
                    int(rhs[r, c]),
                )
    return counterexamples, checked


def sample_theorem1_reference(p, trials, rng_seed):
    """``sample_theorem1(p, trials, rng_seed)`` one triple at a time.

    The triples are drawn as there, ``hv._SAMPLE_CHUNK`` at a time (k,
    then i, then j); each is evaluated with the scalar ``wm.entry_at`` and
    ``dm.sigma``, and the first failing triple is the counterexample.
    Python-speed: a few thousand trials.
    """
    rng = np.random.default_rng(rng_seed)
    counterexample = None
    for start in range(0, trials, hv._SAMPLE_CHUNK):
        size = min(hv._SAMPLE_CHUNK, trials - start)
        # k, then i and j over the p - 1 points other than k
        draws = (
            rng.integers(1, p + 1, size=size, dtype=np.int64),
            rng.integers(1, p, size=size, dtype=np.int64),
            rng.integers(1, p, size=size, dtype=np.int64),
        )
        for k, i, j in zip(*(d.tolist() for d in draws)):
            i += i >= k
            j += j >= k
            lhs = wm.entry_at(p, wm.MatrixVariant.PLAIN, i, j)
            rhs = wm.entry_at(p, wm.MatrixVariant.STAR, dm.sigma(p, k, i), dm.sigma(p, k, j))
            if counterexample is None and lhs != rhs:
                counterexample = (k, i, j, lhs, rhs)
    return VerificationReport(
        check_name="theorem1-sampled",
        order=p,
        counterexample=counterexample,
        checked_count=trials,
        seed=rng_seed,
    )


def threshold_scores_reference(p, variant):
    """``threshold_scores(p, variant)`` as positive entries counted per row
    of ``entry_grid``, one row block (``_row_blocks``) at a time: O(p**2)
    time in bounded memory."""
    wm.order_exponent(p)
    idx = np.arange(1, p + 1, dtype=np.int32)
    return np.concatenate(
        [(wm.entry_grid(p, variant, idx[b]) > 0).sum(axis=1) for b in wm._row_blocks(p, p)]
    )


def induced_halves_mismatch_reference(order):
    """The first failing induced-half identity of theorem 2 at one order, or
    None, on entry grids (O(p**2)): the plain matrix's first half and the
    starred one's last half against the half-order pair."""
    h = order // 2
    idx = np.arange(1, h + 1, dtype=np.int32)
    for variant, which, shift in (
        (wm.MatrixVariant.PLAIN, "first", 0),
        (wm.MatrixVariant.STAR, "last", h),
    ):
        big = wm.entry_grid(order, variant, idx + shift, idx + shift) > 0
        small = wm.entry_grid(h, variant, idx, idx) > 0
        if not np.array_equal(big, small):
            return f"induced {which} half at p={order} differs from p={h}"
    return None


def halving_chain_reference(p):
    """The message of the first failing halving step of theorem 2 from
    order p down to 8, or None: at each order the score splits of the plain
    and the starred tournament (``threshold_scores_reference``), then
    ``induced_halves_mismatch_reference``, the order in which
    ``verify_nonisomorphic_inductive`` runs them."""
    order = p
    while order >= 8:
        h = order // 2
        for variant, first in ((wm.MatrixVariant.PLAIN, h), (wm.MatrixVariant.STAR, h - 1)):
            got = threshold_scores_reference(order, variant)
            expected = np.repeat([first, order - 1 - first], h)
            if not np.array_equal(got, expected):
                return (
                    f"score split failed at p={order} ({variant.value}): "
                    f"first mismatch at point {int(np.argmax(got != expected)) + 1}"
                )
        mismatch = induced_halves_mismatch_reference(order)
        if mismatch is not None:
            return mismatch
        order = h
    return None


def assignment_census_reference(p, iso_budget=db.DEFAULT_ISO_BUDGET):
    """``assignment_census(p)`` without its symmetries: every row searched,
    its tournament flag read off its digraphs, and its orbit id the smaller
    value of its bit string and that string with the two extreme levels'
    characters exchanged."""
    n = wm.order_exponent(p)
    rows = []
    for chars in itertools.product("01", repeat=2 * (n + 1)):
        bits = "".join(chars)
        a = db.assignment_from_bits(n, bits)
        g, h = db._assigned_pair(p, a)
        swapped = list(chars)
        swapped[n], swapped[-1] = chars[-1], chars[n]
        rows.append(
            db.CensusRow(
                bits,
                g.is_tournament() and h.is_tournament(),
                db._census_entry(p, a, iso_budget),
                min(int(bits, 2), int("".join(swapped), 2)),
            )
        )
    return db.CensusTable(p, tuple(rows))


def relabel(g, perm):
    """The digraph whose arc (i, j) mirrors g's arc (perm(i), perm(j)), for a
    1-based permutation ``perm`` of g's points."""
    sel = np.asarray(perm, dtype=np.int64) - 1
    return db.Digraph(g.order, dm._permuted(g.adjacency, sel))


def every_relabeling_code(g):
    """The least adjacency code of g over all p! relabelings, for p <= 7.

    Entry (i, j) is bit i * p + j of a relabeling's code, so two digraphs
    of one order are isomorphic exactly when their codes are equal.
    """
    p = g.order
    if p > 7:
        raise ValueError(f"every_relabeling_code needs p <= 7, got {p}")
    perms = np.array(list(itertools.permutations(range(p))), dtype=np.intp).reshape(-1, p)
    grids = g.adjacency[perms[:, :, None], perms[:, None, :]].reshape(len(perms), -1)
    return int((grids.astype(np.int64) @ (1 << np.arange(p * p, dtype=np.int64))).min())
