"""The slow forms of the library's fast paths: test oracles.

Each function here computes what one fast path computes, the long way, so
a test can require the two to give the same verdict, counterexample and
count:

* ``lemma2_dense``: ``check_lemma2`` as one masked row-block scan of the
  map table per part (``weight_matrix._first_cell``), with (d) as
  ``lemma2_d``, one scan of each point against its partner at distance
  p/2, where ``check_lemma2`` reads the maps' closed form off the digit
  automaton; ``lemma2_loops``, the per-point loops that those scans
  replaced; and ``lemma3_loops``, lemma 3 per point on dense matrices and
  the map table, which ``check_lemma3`` reads off the digit automaton;
* ``level_pairs``, the distinct level pairs a point map makes between two
  dense matrices, and on it ``swap_reference`` and
  ``level_table_reference``: ``swap_involution`` and the point-1 level
  check of ``digraph_builder._level_table`` on entry grids;
* ``check_lemma1_reference``: lemma 1 on entry grids, O(p**2);
* ``lemma2_d_reference``: ``lemma2_d`` on full (p-1) x (p-1) difference
  matrices per deletion;
* ``deletion_sweep_reference``: ``_deletion_sweep`` as a block copy per
  deletion, with the deleted row and column left out;
* ``hypomorphisms_reference``: the reports of ``decide_hypomorphisms``
  from one deletion sweep of the dense level matrices per level table;
* ``theorem1_loops``: ``decide_theorem1`` over every triple, with the
  images of the maps' unchecked closed form;
* ``sample_theorem1_reference``: ``sample_theorem1`` with one
  ``entry_at``/``sigma`` evaluation per drawn triple;
* ``threshold_scores_reference`` and ``induced_halves_mismatch_reference``:
  the two per-level steps of theorem 2 on entry grids, O(p**2), and
  ``halving_chain_reference``, which runs them level by level;
* ``assignment_census_reference``: the census with every row searched
  (``census_entry``, one ``are_isomorphic`` call), each on the pair
  ``assigned_pair`` builds through ``apply_assignment`` on the dense
  matrices, in place of the census's halving argument on stacked rows;
* ``every_relabeling_code``: an isomorphism invariant that is complete
  because it tries all p! relabelings;
* ``relabel``: a digraph with its points renamed by a permutation, which
  the census's orbit partners must equal.

Library functions are reached through their modules (``wm.entry_grid``,
``ie.are_isomorphic``, ...), so a test that patches a seam there reaches the
oracle too.
"""

import itertools

import numpy as np

import recon_census.deletion_maps as dm
import recon_census.digraph_builder as db
import recon_census.hypomorphism_verifier as hv
import recon_census.iso_engine as ie
import recon_census.theorem1_automaton as t1a
import recon_census.weight_matrix as wm
from recon_census.report import VerificationReport


def lemma2_dense(p, cols=None):
    """``check_lemma2(p)`` over the map table ``cols``, by default
    ``dm.build_all_maps(p)``, whose ValueError a map that is not a
    bijection raises: one masked row-block scan per part."""
    wm.order_exponent(p)
    if p < 8:
        raise ValueError(f"check_lemma2 requires p >= 8, got {p}")
    if cols is None:
        cols = dm.build_all_maps(p)
    h = p // 2
    points = np.arange(1, p + 1, dtype=np.int32)
    low = points[:h]

    # (a) column halving, rows k <= p/2, columns i
    def halving(ks):
        k = points[ks, None]
        bad = cols[ks] != cols[ks.start + h : ks.stop + h]
        return bad & (points != k) & (points != k + h)

    # (b) half-shift equivariance, rows k, columns i <= p/2
    def shift(ks):
        k = points[ks, None]
        return (cols[ks, h:] != cols[ks, :h] - h) & (low != k) & (low + h != k)

    # (c) distance-p/2 detection under deletion of an endpoint, rows i, columns j
    def detection(ks):
        i, t = points[ks, None], cols[ks]
        plus_bad = (points == i + h) != (t == i + h)
        minus_bad = (points == i - h) != (t == i - h)
        return (plus_bad | minus_bad) & (points != i)

    counterexample = None
    if (cell := wm._first_cell(h, p, halving)) is not None:
        k, i = cell
        counterexample = (k + 1, i + 1, 0, int(cols[k, i]), int(cols[k + h, i]))
    elif (cell := wm._first_cell(p, h, shift)) is not None:
        k, i = cell
        counterexample = (k + 1, i + h + 1, 0, int(cols[k, i + h]), int(cols[k, i]) - h)
    elif (cell := wm._first_cell(p, p, detection)) is not None:
        i, j = cell
        counterexample = (i + 1, i + 1, j + 1, int(cols[i, j]), j + 1)

    # (d) distance-p/2 preservation under every deletion
    if counterexample is None:
        counterexample = lemma2_d(p, cols)

    checked = h * (p - 2) + p * (h - 1) + p * (p - 1) + p * (p - 1) ** 2
    return VerificationReport("lemma2", p, counterexample, checked)


def lemma2_d(p, cols):
    """First counterexample to lemma 2 (d) over the map table ``cols``, or None.

    Let partner(i) = ((i - 1) XOR p/2) + 1, the point at distance p/2
    from i.  Under the deletion of k, (i, j) can fail only at j = partner(i)
    or at the preimage of partner(image(i)), so every pair holds exactly
    when image(i) - image(partner(i)) = partner(i) - i for each i other
    than k and partner(k), and partner(k) is fixed: one ``_first_cell``
    scan over (k, i), O(p**2).  The rows must be bijections, as
    ``build_all_maps`` checks.  The report is that of the full-matrix form,
    ``lemma2_d_reference``: the first failing pair in row-major order.
    """
    points = np.arange(1, p + 1, dtype=np.int32)
    partner = ((points - 1) ^ (p // 2)) + 1

    def unmatched(ks):
        k, t = points[ks, None], cols[ks]
        kept = (points != k) & (partner != k)
        bad = t - t[:, partner - 1] != partner - points
        return (bad & kept) | ((partner == k) & (t != points))

    if (cell := wm._first_cell(p, p, unmatched)) is None:
        return None
    k, i = cell
    t = cols[k]
    image_diff = t[i] - t
    point_diff = points - (i + 1)
    candidates = (points == partner[i]) | (t == partner[t[i] - 1])
    j = int(np.argmax(candidates & (image_diff != point_diff) & (points != k + 1)))
    return (k + 1, i + 1, j + 1, int(image_diff[j]), int(point_diff[j]))


def lemma2_loops(p, cols):
    """``lemma2_dense(p, cols)`` as per-point loops; (d) is ``lemma2_d``."""
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
        counterexample = lemma2_d(p, cols)

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


def level_pairs(a, b, perm):
    """The distinct level pairs (a[i, j], b[perm[i], perm[j]]), ascending,
    as a (k, 2) array.

    ``a`` and ``b`` are p x p level matrices and ``perm`` a 0-based point
    map, so the pairs say which level of ``a`` the map sends onto which
    level of ``b``.  A diagonal cell that reads (0, 0) is no pair, so a
    nonzero diagonal cell still shows as one.
    """
    u = a.astype(np.int32)
    v = dm._permuted(b, perm).astype(np.int32)
    blank = np.eye(len(a), dtype=bool) & (u == 0) & (v == 0)
    codes = np.unique(((u + 128) << 8 | v + 128)[~blank])
    return np.stack([(codes >> 8) - 128, (codes & 0xFF) - 128], axis=1)


def swap_reference(p):
    """``swap_involution(p)``'s ContradictionError message, or None where it
    holds, on the unvalidated entry grids: under the half swap tau each
    variant's level pairs with itself must be (u, -u) where |u| = n+1 and
    (u, u) elsewhere."""
    top = wm.order_exponent(p) + 1
    tau = np.arange(p) ^ p // 2
    for variant in (wm.MatrixVariant.PLAIN, wm.MatrixVariant.STAR):
        levels = wm.entry_grid(p, variant)
        u, v = level_pairs(levels, levels, tau).T
        if np.any(v != np.where(np.abs(u) == top, -u, u)):
            return f"half-swap failed the level-swap identity at p={p} ({variant.value})"
    return None


def level_table_reference(p):
    """``digraph_builder._level_table(p)``'s ContradictionError message, or
    None where it holds, on the unvalidated entry grids: every level pair
    (plain(i, j), star(ext(i), ext(j))) under ``extend_sigma_p1`` must be
    (u, u) or (+-(n+1), -+(n+1)), and the first that is not is named."""
    top = wm.order_exponent(p) + 1
    plain, star = (wm.entry_grid(p, v) for v in wm.MatrixVariant)
    pairs = level_pairs(plain, star, dm.extend_sigma_p1(p) - 1)
    u, v = pairs.T
    stray = (v != u) & ((np.abs(u) != top) | (v != -u))
    if not stray.any():
        return None
    u, v = pairs[np.argmax(stray)].tolist()
    return (
        f"extended point-1 mapping is not an isomorphism at p={p}: "
        f"it sends plain level {u} onto starred level {v}"
    )


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
    """``lemma2_d(p, cols)`` with (p-1)**2 pairs compared per deletion."""
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


def deletion_sweep_reference(a, b, tables):
    """``_deletion_sweep(a, b, tables)`` as one (p-1) x (p-1) block copy
    per deletion, with the deleted row and column left out."""
    p = a.shape[0]
    points = np.arange(1, p + 1, dtype=np.int32)
    for k in range(1, p + 1):
        rest = points[points != k]
        imgs = tables[k - 1][rest - 1]
        lhs = a[np.ix_(rest - 1, rest - 1)]
        rhs = b[np.ix_(imgs - 1, imgs - 1)]
        if not np.array_equal(lhs, rhs):
            r, c = divmod(int(np.argmax(lhs != rhs)), p - 1)
            return (k, int(rest[r]), int(rest[c]), int(lhs[r, c]), int(rhs[r, c]))
    return None


def hypomorphisms_reference(p):
    """``decide_hypomorphisms(p)`` by the dense route: for each table of
    ``level_tables(p)``, one ``hv._deletion_sweep`` of the level matrices
    of ``hv.build_dense`` read through it, over ``hv.build_all_maps(p)``.

    A level beyond the table's reach (magnitude above ``len(lut) // 2``)
    has no entry: it is read as the level plus 1000 on the plain side and
    plus 2000 on the starred side, so it differs from every value of the
    other side, and the counterexample names it as the raw level."""
    plain = hv.build_dense(p, wm.MatrixVariant.PLAIN).entries
    star = hv.build_dense(p, wm.MatrixVariant.STAR).entries
    maps = hv.build_all_maps(p)

    def read(levels, lut, missing):
        wide = levels.astype(np.int16)
        inside = np.abs(wide) <= len(lut) // 2
        return np.where(inside, lut[np.where(inside, levels, 0)], wide + missing)

    reports = []
    for name, lut in t1a.level_tables(p).items():
        cex = hv._deletion_sweep(read(plain, lut, 1000), read(star, lut, 2000), maps)
        if cex is not None:
            cex = cex[:3] + tuple(v - 1000 * round(v / 1000) for v in cex[3:])
        reports.append(VerificationReport(name, p, cex, p * (p - 1) ** 2))
    return reports


def theorem1_loops(p):
    """``decide_theorem1(p)`` one triple at a time, k, then i, then j:
    plain(i, j) against star(sigma_k(i), sigma_k(j)) on the entry grids,
    with the images of ``dm._sigma_closed_form``.  That form checks
    nothing, so an edit to ``_SIGMA4`` that breaks a map's bijection, or
    lies outside 1..4, is read here as the closed form reads it."""
    plain, star = (wm.entry_grid(p, v).tolist() for v in wm.MatrixVariant)
    points = np.arange(1, p + 1, dtype=np.int32)
    for k in range(1, p + 1):
        images = [0, *dm._sigma_closed_form(p, np.int32(k), points).tolist()]
        others = [i for i in range(1, p + 1) if i != k]
        for i, j in itertools.product(others, repeat=2):
            lhs, rhs = plain[i - 1][j - 1], star[images[i] - 1][images[j] - 1]
            if lhs != rhs:
                return VerificationReport("theorem1", p, (k, i, j, lhs, rhs), p * (p - 1) ** 2)
    return VerificationReport("theorem1", p, None, p * (p - 1) ** 2)


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


def assigned_pair(p, a):
    """The plain and starred digraphs of assignment ``a`` at order p, each
    ``apply_assignment`` on a validated dense matrix."""
    return tuple(db.apply_assignment(wm.build_dense(p, v), a) for v in wm.MatrixVariant)


def census_entry(g, h, budget=ie.DEFAULT_ISO_BUDGET):
    """Search verdict for one row's assigned pair: True, False, or None when
    the search exhausted the budget."""
    return {
        ie.IsoStatus.ISOMORPHIC: True,
        ie.IsoStatus.NON_ISOMORPHIC: False,
        ie.IsoStatus.UNDECIDED: None,
    }[ie.are_isomorphic(g, h, budget=budget).status]


def assignment_census_reference(p, iso_budget=ie.DEFAULT_ISO_BUDGET):
    """``assignment_census(p)`` without its symmetries: every row searched,
    its tournament flag read off its digraphs, and its orbit id the smaller
    value of its bit string and that string with the two extreme levels'
    characters exchanged."""
    n = wm.order_exponent(p)
    rows = []
    for chars in itertools.product("01", repeat=2 * (n + 1)):
        bits = "".join(chars)
        a = db.assignment_from_bits(n, bits)
        g, h = assigned_pair(p, a)
        swapped = list(chars)
        swapped[n], swapped[-1] = chars[-1], chars[n]
        rows.append(
            db.CensusRow(
                bits,
                g.is_tournament() and h.is_tournament(),
                census_entry(g, h, iso_budget),
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
