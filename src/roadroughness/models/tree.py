"""Random forests for regression and classification.

Splits minimize the weighted child impurity (SSE for regression, Gini for
classification). All tie-breaking is deterministic: candidate features are
scanned in ascending index order and only strict improvements are accepted,
so the lowest feature index wins ties, and within a feature the lowest
threshold wins.

Trees grow together, one level at a time (``grow_trees``), in groups of
at most ``GROW_ROWS`` bootstrap rows. Each tree grows on its own list of
columns, so one call can grow the forests of several column subsets of
the same rows (``forests_predict``, which forward selection uses to score
every candidate of a step at once). Each column of the input is ranked
once per call; each tree then orders its bootstrap rows by those ranks,
stably, so rows with equal values keep their bootstrap order (SLIQ's
presorting). A level holds the rows of each open node as one segment, in
bootstrap order; each (node, feature) pair a node may split on gets its
rows ordered by that rank. Split scores come from cumulative sums that
restart at each pair's segment, computed in the same order and with the
same rounding as a node-by-node grower, so the trees are the ones that
grower builds, whatever the grouping. A node's feature subset is a keyed
draw: the features with the smallest hashes of (tree key, heap index,
feature), so it does not depend on the order in which nodes grow.

A forest's bootstraps and keys come from its seed and row count alone
(``forest_draws``). It keeps each tree as a ``Tree`` of node arrays, views
into the engine's output; prediction walks every row down every tree at
once (``_descend``).
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..core import N_LEVELS, is_integer, training_data

MAX_DEPTH = 63  # heap indices 0 .. 2**(MAX_DEPTH + 1) - 2 fit in uint64
# Bootstrap rows grown in one pass. The engine's temporaries take about
# 0.5 KB per row, so this caps their memory; it also sets speed. Each
# level makes the same few dozen numpy passes over all rows of the group:
# smaller groups pay that call overhead more often, larger ones run those
# passes on arrays that outgrow the CPU caches. Measured (host s, 2-vCPU
# box, one thread): forward selection at the 42 km acceptance shape
# (15-tree forests, up to 1200 rows) took 31.7, 24.5, 26.0 and 30.7 s at
# 2**13 .. 2**16 rows. At the benchmark's shapes (3- and 5-tree forests
# of 41 candidates on 40-210 rows) it took 58-71 and 93-118 ms over
# 2**12 .. 2**16, fastest at 2**13, with 2**14 within 9 %. 100-tree
# depth-10 forests on 2600-5200 random rows grew 18-20 % faster at 2**14
# than at 2**16. BENCH_select_groups.json holds the sweep.
GROW_ROWS = 1 << 14


# ----------------------------------------------------------- keyed draws

def _splitmix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 of every element of a uint64 array (wrapping arithmetic)."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def draw_key(rng: np.random.Generator) -> np.uint64:
    """A tree's key for its feature draws, taken from its generator."""
    return rng.integers(0, 2 ** 64 - 1, dtype=np.uint64, endpoint=True)


def feature_subsets(keys, heaps, d: int, mf: int) -> np.ndarray:
    """(nodes x d) mask of the features each node may split on.

    Node i draws the ``mf`` features with the smallest SplitMix64 hash of
    (``keys[i]``, ``heaps[i]``, feature); ties in the hash go to the lower
    feature. The root has heap index 0 and node h has children 2h+1, 2h+2.
    """
    keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
    heaps = np.atleast_1d(np.asarray(heaps, dtype=np.uint64))
    node = _splitmix64(keys ^ _splitmix64(heaps))
    u = _splitmix64(node[:, None] ^ np.arange(d, dtype=np.uint64))
    mask = np.zeros(u.shape, dtype=bool)
    pick = np.argsort(u, axis=1, kind="stable")[:, :mf]
    np.put_along_axis(mask, pick, True, axis=1)
    return mask


# ------------------------------------------------ exact segmented sums

def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + n) for every (s, n), at least one."""
    ends = np.add.accumulate(lens)
    return np.arange(ends[-1]) + (starts - ends + lens).repeat(lens)


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[0], b[0], a[1], b[1], ..."""
    out = np.empty(2 * len(a), dtype=a.dtype)
    out[0::2] = a
    out[1::2] = b
    return out


def _segment_sums(a: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``np.sum`` of every segment of the last axis of ``a``, bit for bit.

    ``np.add.reduceat`` adds a segment's first value to numpy's pairwise sum
    of the rest; with a 0 put before every segment, that is the pairwise
    sum of the whole segment, as ``np.sum`` computes it.
    """
    z = np.zeros(a.shape[:-1] + (a.shape[-1] + len(lens),))
    z[..., np.arange(a.shape[-1]) + np.arange(1, len(lens) + 1).repeat(
        lens)] = a
    return np.add.reduceat(z, np.add.accumulate(lens + 1) - lens - 1,
                           axis=-1)


class _Padded:
    """Segments of a flat array, each laid out as a zero-padded column.

    Columns are powers of two high, at least 8; the columns of one height
    form one matrix, so that a running sum down the rows adds every segment
    in its own order, strictly one value after the other, as ``np.cumsum``
    does. If one height fits every segment in at most ``SMALL`` slots, or
    at most 2 slots per value, all columns share it; otherwise each gets
    the next power of two of its length (under 2 slots per value). Either
    way the layout stays linear in the values. A matrix of few columns is
    stored transposed, one column per memory row. Value j of segment i sits
    in slot ``col[i] + j * stride[i]``; ``blocks`` lists per matrix its
    slots [lo, hi), its height and width, and its columns [c_lo, c_hi) in
    ``order``, the segments sorted by height.
    """

    SMALL = 1 << 12

    def __init__(self, lens: np.ndarray):
        self.lens = lens
        bits = np.maximum(3, np.frexp(lens - 1)[1])   # 2**bits >= length
        top = int(bits.max())
        if len(lens) << top <= max(self.SMALL, 2 * int(lens.sum())):
            bits = np.full(len(lens), top)
            self.order = np.arange(len(lens))
            edges = [0, len(lens)]
        else:
            self.order = bits.argsort(kind="stable")
            bits = bits[self.order]
            edges = [0] + ((bits[1:] != bits[:-1]).nonzero()[0]
                           + 1).tolist() + [len(lens)]
        self.blocks = []
        col = np.empty(len(lens), dtype=np.int64)
        stride = np.empty(len(lens), dtype=np.int64)
        lo = 0
        for c_lo, c_hi in zip(edges[:-1], edges[1:]):
            h, k = 1 << int(bits[c_lo]), c_hi - c_lo
            self.blocks.append((lo, lo + h * k, h, k, c_lo, c_hi))
            if k <= h:      # few tall columns: store them as rows
                col[c_lo:c_hi] = np.arange(lo, lo + h * k, h)
                stride[c_lo:c_hi] = 1
            else:
                col[c_lo:c_hi] = np.arange(lo, lo + k)
                stride[c_lo:c_hi] = k
            lo += h * k
        self.size = lo
        self.col = np.empty_like(col)
        self.col[self.order] = col
        self.stride = np.empty_like(stride)
        self.stride[self.order] = stride
        ends = np.add.accumulate(lens)
        local = np.arange(ends[-1]) - (ends - lens).repeat(lens)
        self.slots = self.col.repeat(lens) + local * self.stride.repeat(lens)

    def spread(self, values: np.ndarray) -> np.ndarray:
        """The values, segment after segment, in their padded slots."""
        out = np.zeros(values.shape[:-1] + (self.size,))
        for row, v in zip(out.reshape(-1, self.size),
                          values.reshape(-1, values.shape[-1])):
            row[self.slots] = v
        return out

    def cumsum(self, a: np.ndarray) -> np.ndarray:
        """``np.cumsum`` down every column of the padded array ``a`` (last
        axis), bit for bit."""
        lead = a.shape[:-1]
        run = np.empty_like(a)
        for lo, hi, h, k, _, _ in self.blocks:
            if k <= h:
                run[..., lo:hi] = np.add.accumulate(
                    a[..., lo:hi].reshape(lead + (k, h)), axis=-1).reshape(
                        lead + (-1,))
            else:
                run[..., lo:hi] = np.add.accumulate(
                    a[..., lo:hi].reshape(lead + (h, k)), axis=-2).reshape(
                        lead + (-1,))
        return run

    def first_min(self, a: np.ndarray) -> np.ndarray:
        """Per segment, the row of the first minimum of its column (its
        first NaN, if any), as ``np.argmin``."""
        out = np.empty(len(self.lens), dtype=np.int64)
        for lo, hi, h, k, c_lo, c_hi in self.blocks:
            if k <= h:
                out[self.order[c_lo:c_hi]] = a[lo:hi].reshape(k, h).argmin(
                    axis=1)
            else:
                out[self.order[c_lo:c_hi]] = a[lo:hi].reshape(h, k).argmin(
                    axis=0)
        return out


# ------------------------------------------------------------- engine

def _check_depth(max_depth: int) -> None:
    if not 1 <= max_depth <= MAX_DEPTH:
        raise ValueError(f"max_depth must be between 1 and {MAX_DEPTH} "
                         "(heap index width)")


def _best_splits(task, xs, ys, lens):
    """Best (score, threshold) of every segment of ``xs``/``ys``, which
    hold each segment's rows (at least 2) sorted by its feature, segment
    after segment. A segment without a strict partition scores inf."""
    ends = np.add.accumulate(lens)
    inner = np.ones(len(xs), dtype=bool)
    inner[ends - 1] = False  # no split after a segment's last row
    valid = (inner[:-1] & (xs[1:] > xs[:-1])).nonzero()[0]
    if len(valid) == 0:
        return np.full(len(lens), np.inf), np.zeros(len(lens))
    seg = np.arange(len(lens)).repeat(lens)[valid]
    n = lens[seg]
    first = ends - lens
    sizes_l = (valid - first[seg] + 1).astype(float)
    sizes_r = n - sizes_l
    pad = _Padded(lens)
    if task == "regression":
        moments = np.stack([ys, ys ** 2])
        cum = pad.cumsum(pad.spread(moments))
        tot = _segment_sums(moments, lens)
        at = pad.slots[valid]
        c1, c2 = cum[0, at], cum[1, at]
        sse_l = c2 - c1 ** 2 / sizes_l
        sse_r = (tot[1, seg] - c2) - (tot[0, seg] - c1) ** 2 / sizes_r
        scores = sse_l + sse_r
    else:
        # Class counts are integers, exact in any order of addition.
        onehot = (ys[:, None] == np.arange(N_LEVELS)).astype(float)
        cum = np.add.accumulate(onehot, axis=0)
        before = cum[first] - onehot[first]
        tot = cum[ends - 1] - before
        cum = cum[valid] - before[seg]
        sq_l = np.sum(cum ** 2, axis=1) / sizes_l
        sq_r = np.sum((tot[seg] - cum) ** 2, axis=1) / sizes_r
        scores = n - sq_l - sq_r
    # First minimum per segment, as np.argmin over a node's split points.
    padded = np.full(pad.size, np.inf)
    padded[pad.slots[valid]] = scores
    row = pad.first_min(padded)
    at = first + row
    a, b = xs[at], xs[at + 1]
    t = a + (b - a) / 2.0
    t = np.where(t >= b, a, t)  # guard against rounding on adjacent floats
    return padded[pad.col + row * pad.stride], t


def grow_trees(x, y, boots, keys, task: str, max_depth: int,
               max_features: int, cols=None):
    """Grow one tree per bootstrap row of ``boots`` (trees x n indices into
    ``x``), level by level, in groups of at most ``GROW_ROWS`` bootstrap
    rows.

    Tree ``t`` grows on the columns ``cols[t]`` of ``x`` (a trees x d
    array of column indices; every column of ``x`` when None), as on
    ``x[:, cols[t]]``: its split features are indices into ``cols[t]``.
    Each node draws ``max_features`` of them (all, and no draw, when that
    is at least their count) with ``keys[t]``. Each column of ``x`` that
    some tree uses is ranked once per call.

    Returns the flat node arrays (feature, threshold, left, right, value)
    of all trees, tree after tree, and the node count of every tree. A
    tree's nodes are in depth-first order (a node, its left subtree, its
    right subtree) and its children are indices within the tree. Leaves
    have feature -1 and children -1; internal nodes have value 0.
    """
    _check_depth(max_depth)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    boots = np.asarray(boots, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.uint64)
    n_trees, n = boots.shape
    if cols is None:
        cols = np.broadcast_to(np.arange(x.shape[1]), (n_trees, x.shape[1]))
    cols = np.asarray(cols, dtype=np.int64)
    used, local = np.unique(cols, return_inverse=True)
    local = local.reshape(cols.shape)
    # dense[j, i]: rank of x[i, used[j]] among its column's distinct values.
    dense = np.empty((len(used), len(x)), dtype=np.int64)
    for j, g in enumerate(used):
        dense[j] = np.unique(x[:, g], return_inverse=True)[1]
    if dense.size and dense.max() <= np.iinfo(np.int16).max:
        dense = dense.astype(np.int16)
    group = max(1, GROW_ROWS // n)
    parts = [_grow_group(x, y, dense, boots[lo:lo + group],
                         keys[lo:lo + group], cols[lo:lo + group],
                         local[lo:lo + group], task,
                         max_depth, max_features)
             for lo in range(0, n_trees, group)]
    return tuple(np.concatenate(a) for a in zip(*parts))


def _grow_group(x, y, dense, boots, keys, cols, local, task, max_depth,
                max_features):
    """``grow_trees`` for one group of trees; ``dense`` ranks the columns
    of ``x`` that ``cols`` uses, row ``local[t, f]`` for ``cols[t, f]``."""
    n_trees, n = boots.shape
    d = cols.shape[1]
    mf = min(max_features, d)
    n_rows = n_trees * n
    # Bootstrap row r is sample boots.flat[r]; feature f of its tree is
    # column cols[r // n, f].
    xt = x[boots[None], cols.T[:, :, None]].reshape(d, n_rows)
    yb = y[boots.ravel()]
    # rank[f, r]: position of row r in its tree's rows sorted by feature f,
    # stably. The dense ranks make this a radix sort of small integers.
    rank = np.empty((d, n_rows), dtype=np.int64)
    within = np.tile(np.arange(n), n_trees)
    for f in range(d):
        order = dense[local[:, f, None], boots].argsort(axis=1, kind="stable")
        rank[f, (order + np.arange(0, n_rows, n)[:, None]).ravel()] = within
    # The rows of every open node, node after node, in bootstrap order.
    rows = np.arange(n_rows)
    seg_len = np.full(n_trees, n, dtype=np.int64)
    seg_tree = np.arange(n_trees)
    seg_heap = np.zeros(n_trees, dtype=np.uint64)
    levels, leaf_rows, leaf_lens = [], [], []
    for depth in range(max_depth + 1):
        n_seg = len(seg_len)
        starts = np.add.accumulate(seg_len) - seg_len
        y_seg = yb[rows]
        if task == "regression":
            value = np.zeros(n_seg)
            pure = (np.maximum.reduceat(y_seg, starts)
                    - np.minimum.reduceat(y_seg, starts)) == 0.0
        else:
            counts = np.bincount(np.arange(n_seg).repeat(seg_len)
                                 * N_LEVELS + y_seg,
                                 minlength=n_seg * N_LEVELS)
            counts = counts.reshape(n_seg, N_LEVELS)
            value = counts.argmax(axis=1).astype(float)
            pure = np.count_nonzero(counts, axis=1) == 1
        feat = np.full(n_seg, -1, dtype=np.int64)
        thr = np.zeros(n_seg)
        cand = (~pure & (seg_len >= 2)).nonzero()[0]
        if depth < max_depth and len(cand):
            if mf < d:
                pnode, pfeat = feature_subsets(
                    keys[seg_tree[cand]], seg_heap[cand], d, mf).nonzero()
            else:
                pnode, pfeat = np.divmod(np.arange(len(cand) * d), d)
            # One segment per (node, feature) pair: the node's rows sorted
            # by the feature, ties in bootstrap order.
            plen = seg_len[cand[pnode]]
            prow = rows[_ranges(starts[cand[pnode]], plen)]
            at_f = (pfeat * n_rows).repeat(plen)
            prow = prow[(rank.ravel()[at_f + prow]
                         + (np.arange(len(plen)) * n).repeat(plen)).argsort()]
            score, pthr = _best_splits(task, xt.ravel()[at_f + prow],
                                       yb[prow], plen)
            grid = np.full((len(cand), d), np.inf)
            grid[pnode, pfeat] = score
            tgrid = np.zeros((len(cand), d))
            tgrid[pnode, pfeat] = pthr
            best = grid.argmin(axis=1)
            ok = (grid[np.arange(len(cand)), best] < np.inf).nonzero()[0]
            feat[cand[ok]] = best[ok]
            thr[cand[ok]] = tgrid[ok, best[ok]]
        split = feat >= 0
        value[split] = 0.0
        levels.append([seg_tree, feat, thr, value])
        pos_seg = np.arange(n_seg).repeat(seg_len)
        keep = split[pos_seg]
        if task == "regression":
            leaf_rows.append(rows[~keep])
            leaf_lens.append(seg_len[~split])
        if not split.any():
            break
        # Keep the rows of split nodes and partition each node stably, left
        # child first, both in the parent's place: a left row moves to its
        # node's start plus the left rows before it in the node, a right
        # row to the node's start plus n_left plus the right rows before it.
        rows, pos_seg = rows[keep], pos_seg[keep]
        left = xt[feat[pos_seg], rows] <= thr[pos_seg]
        sl = seg_len[split]
        sid = np.arange(len(sl)).repeat(sl)
        n_left = np.bincount(sid, weights=left, minlength=len(sl)).astype(
            np.int64)
        lefts_before = (np.add.accumulate(n_left) - n_left)[sid]
        s0 = (np.add.accumulate(sl) - sl)[sid]
        seen = np.add.accumulate(left, dtype=np.int64) - lefts_before
        dest = np.where(left, s0 + seen - 1,
                        np.arange(len(sid)) + n_left[sid] - seen)
        new_rows = np.empty_like(rows)
        new_rows[dest] = rows
        rows = new_rows
        seg_len = _interleave(n_left, sl - n_left)
        seg_tree = seg_tree[split].repeat(2)
        heap = 2 * seg_heap[split]
        seg_heap = _interleave(heap + np.uint64(1), heap + np.uint64(2))
    if task == "regression":
        # Leaf means, as np.mean over each leaf's rows in bootstrap order.
        lens = np.concatenate(leaf_lens)
        means = _segment_sums(yb[np.concatenate(leaf_rows)], lens) / lens
        at = 0
        for level, k in zip(levels, leaf_lens):
            level[3][level[1] < 0] = means[at:at + len(k)]
            at += len(k)
    return _depth_first(levels, n_trees)


def _depth_first(levels, n_trees):
    """Flat node arrays and per-tree node counts (as ``grow_trees``
    returns them) from the per-level node records; the children of a
    level's k-th split node are nodes 2k and 2k+1 of the next level."""
    sizes = [None] * len(levels)
    nxt = None
    for k in range(len(levels) - 1, -1, -1):
        feat = levels[k][1]
        size = np.ones(len(feat), dtype=np.int64)
        split = (feat >= 0).nonzero()[0]
        if len(split):
            size[split] += nxt[0::2] + nxt[1::2]
        sizes[k] = nxt = size
    total = sizes[0]
    tree_start = np.add.accumulate(total) - total
    n_nodes = int(total.sum())
    feature = np.full(n_nodes, -1, dtype=np.int64)
    threshold = np.zeros(n_nodes)
    left = np.full(n_nodes, -1, dtype=np.int64)
    right = np.full(n_nodes, -1, dtype=np.int64)
    value = np.zeros(n_nodes)
    pos = np.zeros(n_trees, dtype=np.int64)     # within-tree index
    for k, (tree, feat, thr, val) in enumerate(levels):
        at = tree_start[tree] + pos
        feature[at] = feat
        threshold[at] = thr
        value[at] = val
        split = (feat >= 0).nonzero()[0]
        if not len(split):
            break
        lpos = pos[split] + 1
        rpos = lpos + sizes[k + 1][0::2]
        left[at[split]] = lpos
        right[at[split]] = rpos
        pos = _interleave(lpos, rpos)
    return feature, threshold, left, right, value, total


def forest_draws(seed: int, n_trees: int, n: int):
    """Bootstrap rows (n_trees x n indices below n) and feature-draw keys
    of a forest's trees: tree t draws both, in that order, from child t of
    ``SeedSequence(seed)``. They depend on the row count alone, so forests
    grown on other columns of the same rows share them."""
    boots = np.empty((n_trees, n), dtype=np.int64)
    keys = np.empty(n_trees, dtype=np.uint64)
    for t, child in enumerate(np.random.SeedSequence(seed).spawn(n_trees)):
        rng = np.random.default_rng(child)
        boots[t] = rng.integers(0, n, n)
        keys[t] = draw_key(rng)
    return boots, keys


def sqrt_features(d: int) -> int:
    """Features drawn per node by a forest with ``max_features="sqrt"``."""
    return max(1, int(round(np.sqrt(d))))


def forests_predict(x, y, cols, x_eval, n_trees: int, max_depth: int,
                    seed: int) -> np.ndarray:
    """(forests x eval rows) predictions of one regression forest per row
    of ``cols``, all grown in one ``grow_trees`` call and descended at once.

    Row c equals ``RandomForestModel("regression", n_trees, max_depth,
    "sqrt", seed).fit(x[:, cols[c]], y).predict(x_eval[:, cols[c]])`` bit
    for bit: the forests share that model's bootstraps and keys
    (``forest_draws``), and each mean runs over its own trees' rows.
    """
    cols = np.asarray(cols, dtype=np.int64)
    n_forests, d = cols.shape
    boots, keys = forest_draws(seed, n_trees, len(y))
    tree_cols = cols.repeat(n_trees, axis=0)
    feature, *rest, sizes = grow_trees(
        x, np.asarray(y, dtype=float), np.tile(boots, (n_forests, 1)),
        np.tile(keys, n_forests), "regression", max_depth,
        sqrt_features(d), cols=tree_cols)
    # Split features as columns of x_eval, so every tree descends it.
    tree = np.arange(len(sizes)).repeat(sizes)
    feature = np.where(feature < 0, -1, tree_cols[tree, feature])
    leaves = _descend((feature, *rest, sizes), np.asarray(x_eval, float),
                      max_depth)
    return np.stack([forest.mean(axis=0) for forest in
                     leaves.reshape(n_forests, n_trees, -1)])


# ------------------------------------------------------------- models

class Tree(NamedTuple):
    """One tree's nodes, in ``grow_trees``' layout: internal nodes carry a
    feature, a threshold and their children's indices within the tree;
    leaves carry feature -1 and a prediction value."""
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


def split_trees(nodes) -> list[Tree]:
    """Per tree, views of its nodes in ``grow_trees``' flat arrays."""
    *arrays, sizes = nodes
    cuts = np.add.accumulate(sizes)[:-1]
    return [Tree(*t) for t in zip(*(np.split(a, cuts) for a in arrays))]


def _descend(nodes, x: np.ndarray, max_depth: int) -> np.ndarray:
    """(trees x rows) leaf values of the trees in ``grow_trees``' flat
    arrays, none deeper than ``max_depth``: every row steps one level down
    every tree at once, ``x[r, feature] <= threshold`` going left."""
    feature, threshold, left, right, value, sizes = nodes
    offset = np.add.accumulate(sizes) - sizes
    leaf = feature < 0
    here = np.arange(len(feature))
    # A leaf points at itself, so rows that reach it stay there.
    left = np.where(leaf, here, left + offset.repeat(sizes))
    right = np.where(leaf, here, right + offset.repeat(sizes))
    feature = np.where(leaf, 0, feature)
    node = np.repeat(offset[:, None], len(x), axis=1)
    rows = np.arange(len(x))
    for _ in range(max_depth):
        if leaf[node].all():
            break
        node = np.where(x[rows, feature[node]] <= threshold[node],
                        left[node], right[node])
    return value[node]


class RandomForestModel:
    """Bootstrap ensemble of decision trees with random feature subsets."""

    def __init__(self, task: str = "regression", n_trees: int = 100,
                 max_depth: int = 5, max_features: int | str = "sqrt",
                 seed: int = 0):
        if task not in ("regression", "classification"):
            raise ValueError(f"unknown task: {task}")
        if n_trees < 1:
            raise ValueError("n_trees must be positive")
        _check_depth(max_depth)
        if max_features != "sqrt" and not is_integer(max_features):
            raise ValueError(f"max_features must be an integer or 'sqrt', "
                             f"got {max_features!r}")
        self.task = task
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.max_features = max_features
        self.seed = seed
        self.trees: list[Tree] = []

    def _resolve_mf(self, d: int) -> int:
        if self.max_features == "sqrt":
            return sqrt_features(d)
        mf = self.max_features
        if mf < 1 or mf > d:
            raise ValueError(f"max_features {mf} out of range for d={d}")
        return mf

    def fit(self, x, y) -> "RandomForestModel":
        x, y = training_data(x, y, self.task)
        n, d = x.shape
        boots, keys = forest_draws(self.seed, self.n_trees, n)
        self.trees = split_trees(grow_trees(x, y, boots, keys, self.task,
                                            self.max_depth,
                                            self._resolve_mf(d)))
        return self

    def predict(self, x) -> np.ndarray:
        if not self.trees:
            raise ValueError("model is not fitted")
        nodes = (*map(np.concatenate, zip(*self.trees)),
                 np.array([len(t.feature) for t in self.trees]))
        preds = _descend(nodes, np.asarray(x, dtype=float), self.max_depth)
        if self.task == "regression":
            return preds.mean(axis=0)
        votes = np.stack([np.count_nonzero(preds == c, axis=0)
                          for c in range(N_LEVELS)], axis=1)
        return np.argmax(votes, axis=1).astype(float)

    def state_dict(self) -> dict:
        return {
            "task": self.task,
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "max_features": self.max_features,
            "seed": self.seed,
            "trees": [{"task": self.task, "max_depth": self.max_depth,
                       **{k: a.tolist() for k, a in t._asdict().items()}}
                      for t in self.trees],
        }

    @classmethod
    def from_state(cls, state: dict) -> "RandomForestModel":
        # Older bundles may hold a float or bool max_features, which their
        # fit truncated: their trees were grown with int(max_features).
        mf = state["max_features"]
        model = cls(task=state["task"], n_trees=state["n_trees"],
                    max_depth=state["max_depth"],
                    max_features=mf if mf == "sqrt" else int(mf),
                    seed=state["seed"])
        dtypes = (np.int64, float, np.int64, np.int64, float)
        model.trees = [Tree(*(np.array(s[k], dtype=dt)
                              for k, dt in zip(Tree._fields, dtypes)))
                       for s in state["trees"]]
        return model
