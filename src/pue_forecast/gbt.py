"""Gradient-boosted regression trees with squared-error loss.

Trees grow level by level: every node of the current depth is scanned for its
best split before any node of the next depth, and residuals are refreshed
between trees, not between levels. Split search is exact greedy over all
(feature, cut-between-adjacent-sorted-values) candidates, each cut's threshold
the midpoint of its two values, or the upper value where the midpoint rounds
down to the lower or overflows; leaf values use the closed form
sum(residuals) / (count + lambda). There is no row or column subsampling and
no early stopping, so fitting is fully deterministic and a t-tree fit is the
first t rounds of any longer one; split ties break toward the lowest feature
index, then the lowest threshold. A fit is its trees: each split node keeps
its gain, and gain importance is summed from the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import is_finite_number

_ROUTE_CELLS = 1 << 20  # (tree, row) pairs routed at once by gbt_predict


@dataclass(frozen=True)
class GbtConfig:
    """Boosting hyperparameters; a bad value raises ValueError naming its field."""

    learning_rate: float
    n_estimators: int
    max_depth: int
    reg_lambda: float = 1.0

    def __post_init__(self):
        for name in ("n_estimators", "max_depth"):
            value = getattr(self, name)
            if not (isinstance(value, int) and not isinstance(value, bool) and value >= 1):
                raise ValueError(f"{name} must be an int of at least 1, got {value!r}")
        if not (is_finite_number(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be finite and positive, got {self.learning_rate!r}"
            )
        if not (is_finite_number(self.reg_lambda) and self.reg_lambda >= 0):
            raise ValueError(
                f"reg_lambda must be finite and non-negative, got {self.reg_lambda!r}"
            )


@dataclass
class Tree:
    """A single regression tree stored as parallel node arrays (root = node 0)."""

    feature: np.ndarray  # int, -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray  # -1 marks a leaf
    value: np.ndarray
    gain: np.ndarray  # the split's loss reduction, 0 at a leaf

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return _leaf_values([self], X)[0]


@dataclass
class GbtModel:
    """Additive tree ensemble: prediction = base_score + lr * sum(tree outputs)."""

    trees: list[Tree]
    learning_rate: float
    base_score: float
    reg_lambda: float
    n_features: int
    train_losses: list[float] = field(default_factory=list)

    def first(self, n_trees: int) -> GbtModel:
        """The first `n_trees` rounds: bitwise the fit with that many trees, as
        boosting has no subsampling and no early stopping."""
        return replace(self, trees=self.trees[:n_trees],
                       train_losses=self.train_losses[:n_trees])


def _presort(X: np.ndarray, sizes) -> np.ndarray:
    """Stable per-block column presort of the stacked X for _TreeBuilder.

    Returns an [n_features, n_rows] int32 array: per block, the stacked row
    ids in ascending value order, equal values in row order. Feature rows
    are independent and each block keeps to its own span of positions, so
    some feature rows and the positions of the leading blocks are the
    presort of that column subset and those blocks.
    """
    n, f = X.shape
    bounds = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    sort_rows = np.empty((f, n), dtype=np.int32)
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        sort_rows[:, a:b] = np.argsort(X[a:b].T, axis=1, kind="stable")
        sort_rows[:, a:b] += a
    return sort_rows


class _TreeBuilder:
    """Grows one tree per root, all roots level-wise in one pass, against fixed
    presorted feature columns.

    A root is a contiguous block of rows of the stacked X with its own presort,
    residuals and span of node ids; a single-root build is the plain
    one-tree case. Growing several roots together spreads the per-level numpy
    call overhead over all of them, and every root's tree and leaf assignment
    are bitwise those of building it alone: prefix sums restart at each
    root and per-root reductions run over the same elements in the same order.

    The builder keeps one feature-major copy of the values ([n_features,
    n_rows], one contiguous row per feature; free when X is the transpose of
    such an array). Hot-path arrays have the same shape and a grouped
    layout: grouped by current leaf (roots in order, each root's leaves in
    node order), ordered by feature value within each group. Only the row-id
    layout is kept across levels. A split node's children replace it in
    place, left first, so one stable sort of each feature row by its rows'
    new group position regroups it and keeps every group in value order.
    The key is the narrowest unsigned type that holds the group count, so up
    to 65,535 groups a level sorts by radix; past that numpy falls back to
    timsort. Residuals are regathered from the layout into a reused buffer.
    A cut between two equal values is no candidate. The builder flags, once,
    the feature rows where some root's presort holds two adjacent equal
    values (`==`: -0.0 ties 0.0; equal values either side of a root
    boundary do not). Each level, only those tied rows gather their values
    through the layout, a run of adjacent tied rows at a time, and mask the
    equal neighbours; every other row's candidates are the positional ones.
    A chosen cut's threshold comes from the two values it lies between, read
    through the layout. Group geometry (run starts, sizes, row-to-group map)
    is identical across features and computed once per level. A split's
    right child is always its left child + 1, so trees store only `left`.
    """

    def __init__(self, X: np.ndarray, sizes, sort_rows: np.ndarray, max_depth: int,
                 reg_lambda: float):
        n, f = X.shape
        self.values = np.ascontiguousarray(X.T)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        bounds = np.concatenate(([0], np.cumsum(self.sizes)))
        self.blocks = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        self.n_roots = len(self.blocks)
        self.max_depth = max_depth
        self.lam = reg_lambda
        self.n, self.f = n, f
        # the presort of exactly these rows and columns (see _presort); feature
        # row c of an [f, n] scratch block starts at flat offset c*n
        self.sort_rows = sort_rows
        self.rowoff = (n * np.arange(f, dtype=np.int64))[:, None]
        self.rows = np.arange(n)
        self.root_first = np.zeros(n + 1, dtype=bool)
        self.root_first[bounds[:-1]] = True
        # 1 / (count + lambda) for every count 0..n; 0 where that divides by 0
        den = np.arange(n + 1, dtype=np.float64) + reg_lambda
        self.inv_count = np.zeros(n + 1)
        np.divide(1.0, den, out=self.inv_count, where=den > 0.0)
        # feature rows with a tie in some root, scanned one row at a time;
        # comparison p is position p against p + 1
        straddle = bounds[1:-1] - 1  # the pairs across a root boundary
        tied = np.zeros(f, dtype=bool)
        for c in range(f):
            v = self.values[c].take(sort_rows[c])
            eq = v[1:] == v[:-1]
            eq[straddle] = False
            tied[c] = eq.any()
        # runs [a, b) of adjacent feature rows that are all tied or all not
        cuts = [0, *(np.flatnonzero(np.diff(tied)) + 1).tolist(), f]
        self.runs = [(a, b, bool(tied[a])) for a, b in zip(cuts[:-1], cuts[1:])]
        # reusable level scratch; the tied rows' sized to the longest tied run
        self._cums = np.empty((f, n))
        self._gain = np.empty((f, n))
        run = max((b - a for a, b, has_tie in self.runs if has_tie), default=0)
        self._offset = np.empty((run, n), dtype=np.int64)
        self._vals = np.empty((run, n))
        self._valid = np.empty((run, n), dtype=bool)
        # root r numbers its nodes from first[r] in creation order, in a span
        # holding a full binary tree of max_depth clamped by its row count
        caps = [min(2 ** (max_depth + 1) - 1, max(2 * size - 1, 1)) for size in sizes]
        self.first = np.cumsum(caps) - caps
        self.node_root = np.repeat(np.arange(self.n_roots), caps)

    def build(self, residual: np.ndarray) -> tuple[list[Tree], np.ndarray]:
        """Grow one tree per root on the stacked residuals.

        Returns (one tree per root, each row's final leaf as a node index of
        its root's tree).
        """
        n, f, lam = self.n, self.f, self.lam
        inv_count = self.inv_count
        cap = len(self.node_root)
        feature = np.full(cap, -1, dtype=np.int64)
        threshold = np.zeros(cap)
        left = np.full(cap, -1, dtype=np.int64)
        value = np.zeros(cap)
        gain_at = np.zeros(cap)
        counts = np.zeros(cap, dtype=np.int64)
        splittable = np.zeros(cap, dtype=bool)
        value[self.first] = [residual[a:b].sum() / ((b - a) + lam) for a, b in self.blocks]
        counts[self.first] = self.sizes
        splittable[self.first] = self.sizes >= 2
        next_id = self.first + 1  # each root's next free node id
        leaf = np.repeat(self.first, self.sizes)  # every row starts at its root

        perm = self.sort_rows  # row ids in grouped layout; regrouping never mutates it
        layout = self.first  # node ids in layout order

        for depth in range(self.max_depth):
            g_counts = counts[layout]
            active = splittable[layout]
            if not active.any():
                break
            m = len(layout)
            ends = np.cumsum(g_counts)
            starts = ends - g_counts
            ends -= 1
            gor = np.repeat(np.arange(m), g_counts)  # group of each grouped position

            cums = np.take(residual, perm, out=self._cums, mode="clip")
            for a, b in self.blocks:  # prefix sums restart at every root
                np.cumsum(cums[:, a:b], axis=1, out=cums[:, a:b])
            base = cums[:, starts - 1]
            base[:, self.root_first[starts]] = 0.0
            tot = cums[:, ends] - base  # [f, m] exact per-feature segment sums
            left_g = cums
            left_g -= np.repeat(base, g_counts, axis=1)

            # geometry shared by every feature row: a split after position p
            # leaves pos_in_group + 1 rows left and to_end rows right; the
            # last position of a group (to_end 0) is not a split
            pos_in_group = self.rows - starts[gor]
            to_end = ends[gor] - self.rows
            inv_ln = inv_count[pos_in_group + 1]
            inv_rn = inv_count[to_end]
            parent = tot * tot
            parent *= inv_count[g_counts][None, :]

            # gain = L^2/(nl+lam) + (T-L)^2/(nr+lam) - T^2/(n+lam), per position
            rg = np.repeat(tot, g_counts, axis=1)
            rg -= left_g
            gain = np.multiply(left_g, left_g, out=self._gain)
            gain *= inv_ln[None, :]
            rg *= rg
            rg *= inv_rn[None, :]
            gain += rg
            del rg
            gain -= np.repeat(parent, g_counts, axis=1)
            # a split at a group's last position, in an inactive group or
            # between equal values is not a candidate: its gain (finite)
            # becomes 0, which no winner (gain > 0) can tie
            candidate = active[gor]
            candidate &= to_end > 0
            for a, b, has_tie in self.runs:
                mask = candidate
                if has_tie:  # values gathered through the layout
                    offset = np.add(perm[a:b], self.rowoff[a:b], out=self._offset[: b - a])
                    vals = np.take(self.values, offset, out=self._vals[: b - a], mode="clip")
                    mask = self._valid[: b - a]
                    np.not_equal(vals[:, 1:], vals[:, :-1], out=mask[:, :-1])
                    mask &= candidate  # also clears the row's last position
                gain[a:b] *= mask

            # one reduceat over the whole [f, n] gain block: feature row c
            # occupies positions [c*n, (c+1)*n)
            col_max = np.maximum.reduceat(gain.ravel(), (starts + self.rowoff).ravel())
            col_max = col_max.reshape(f, m)
            best_col = np.argmax(col_max, axis=0)  # first max: lowest feature wins ties
            best_gain = col_max.max(axis=0)

            splittable[layout[active]] = False  # split now, or never
            is_sel = active & (best_gain > 0.0)
            sel = np.flatnonzero(is_sel)
            k = sel.size
            if k == 0:
                break

            # first position attaining each winner's max: the lowest threshold
            hit = gain.ravel()[(best_col * n)[gor] + self.rows] == best_gain[gor]
            pos_arr = np.minimum.reduceat(np.where(hit, self.rows, n), starts)[sel]

            # a root's new children take its next ids, pairwise in layout order
            node_ids = layout[sel]
            sel_root = self.node_root[node_ids]
            nth = np.arange(k) - np.searchsorted(sel_root, sel_root)
            left_ids = next_id[sel_root] + 2 * nth
            right_ids = left_ids + 1
            next_id += 2 * np.bincount(sel_root, minlength=self.n_roots)
            cs = best_col[sel]
            lnn = pos_arr - starts[sel] + 1
            rnn = g_counts[sel] - lnn
            lg_v = left_g[cs, pos_arr]
            rg_v = tot[cs, sel] - lg_v
            feature[node_ids] = cs
            lo = self.values[cs, perm[cs, pos_arr]]
            hi = self.values[cs, perm[cs, pos_arr + 1]]
            with np.errstate(over="ignore"):
                mid = 0.5 * (lo + hi)
            # the midpoint, unless it rounds down to lo (adjacent floats) or
            # overflows: then hi, which cuts the rows alike
            threshold[node_ids] = np.where((lo < mid) & (mid <= hi), mid, hi)
            left[node_ids] = left_ids
            gain_at[node_ids] = best_gain[sel]
            value[left_ids] = lg_v / (lnn + lam)
            value[right_ids] = rg_v / (rnn + lam)
            counts[left_ids] = lnn
            counts[right_ids] = rnn
            if depth + 1 < self.max_depth:
                splittable[left_ids] = lnn >= 2
                splittable[right_ids] = rnn >= 2

            node_feat = feature[leaf]
            is_split = node_feat >= 0
            go_left = self.values[np.maximum(node_feat, 0), self.rows] < threshold[leaf]
            child = left[leaf]
            child += ~go_left  # right child = left child + 1
            leaf = np.where(is_split, child, leaf)

            if depth + 1 == self.max_depth:
                break

            # every split node is replaced in place by its two children
            widths = is_sel + 1
            layout = np.repeat(layout, widths)
            layout[np.repeat(is_sel, widths)] = np.column_stack((left_ids, right_ids)).ravel()
            # a stable sort by each row's new group position regroups every
            # feature row and keeps each group in value order
            group = np.empty(cap, dtype=np.min_scalar_type(len(layout)))
            group[layout] = np.arange(len(layout))
            order = np.argsort(np.take(group[leaf], perm), axis=1, kind="stable")
            order += self.rowoff
            perm = np.take(perm, order)

        # root r's tree is the span first[r]:next_id[r], numbered from 0
        offset = self.first[self.node_root]
        left_local = np.where(left >= 0, left - offset, -1)
        trees = [
            Tree(feature=feature[a:b], threshold=threshold[a:b], left=left_local[a:b],
                 value=value[a:b], gain=gain_at[a:b])
            for a, b in zip(self.first.tolist(), next_id.tolist())
        ]
        return trees, leaf - offset[leaf]


def gbt_fit(
    X: np.ndarray,
    y: np.ndarray,
    n_estimators: int,
    learning_rate: float,
    max_depth: int,
    reg_lambda: float = 1.0,
    seed: int = 0,
) -> GbtModel:
    """Fit an ensemble of `n_estimators` trees to residuals of the running model.

    base_score is mean(y); each tree is fit to the current residuals by exact
    greedy split search with L2 leaf shrinkage `reg_lambda`. Training MSE per
    boosting round is recorded in the returned model and never increases.
    `seed` is accepted for interface stability; the procedure is deterministic.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if X.shape[1] == 0:
        raise ValueError("X has no feature columns")
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if X.shape[0] < 2:
        raise ValueError("need at least two samples")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("X and y must be finite")
    GbtConfig(learning_rate, n_estimators, max_depth, reg_lambda)  # checks them

    sizes = (X.shape[0],)
    return _fit_core(
        X, y, n_estimators, learning_rate, max_depth, reg_lambda, _presort(X, sizes),
        sizes,
    )[0]


def _fit_core(
    X: np.ndarray,
    y: np.ndarray,
    n_estimators: int,
    learning_rate: float,
    max_depth: int,
    reg_lambda: float,
    presort: np.ndarray,
    sizes,
) -> list[GbtModel]:
    """Boosting loops of several independent fits, grown tree by tree in lockstep.

    Fit k uses the k-th contiguous block of `sizes[k]` rows of X and y;
    `presort` is `_presort(X, sizes)`. Returns one `n_estimators`-tree model
    per block, equal bitwise to fitting that block alone. Inputs are trusted.
    """
    builder = _TreeBuilder(X, sizes, presort, max_depth, reg_lambda)
    blocks = builder.blocks
    base = [float(y[a:b].mean()) for a, b in blocks]
    pred = np.repeat(base, builder.sizes)
    models = [
        GbtModel(
            trees=[],
            learning_rate=learning_rate,
            base_score=b,
            reg_lambda=reg_lambda,
            n_features=X.shape[1],
        )
        for b in base
    ]
    for _ in range(n_estimators):
        residual = y - pred
        trees, leaf = builder.build(residual)
        step = np.concatenate([t.value[leaf[a:b]] for t, (a, b) in zip(trees, blocks)])
        pred = pred + learning_rate * step
        sq_err = (y - pred) ** 2
        for model, tree, (a, b) in zip(models, trees, blocks):
            model.trees.append(tree)
            model.train_losses.append(float(np.mean(sq_err[a:b])))
    return models


def gbt_predict(m: GbtModel, X: np.ndarray, counts=None) -> np.ndarray:
    """Evaluate the ensemble on the rows of X.

    With `counts`, returns [len(counts), n_rows]: row j is the prediction of
    the first counts[j] trees, bitwise equal to predicting with that prefix
    alone, while every tree is routed once. Each row's per-tree steps are
    added in tree order either way: a cumulative sum over the stacked base
    score and steps is a sequential running sum.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != m.n_features:
        raise ValueError(
            f"expected a 2-D matrix with {m.n_features} columns, got shape {X.shape}"
        )
    staged = [len(m.trees)] if counts is None else list(counts)
    if not all(0 <= t <= len(m.trees) for t in staged):
        raise ValueError(f"tree counts must lie in 0..{len(m.trees)}, got {staged}")
    trees = m.trees[: max(staged, default=0)]
    out = np.empty((len(staged), X.shape[0]))
    # all trees walk a block of rows together; the block bounds the
    # [n_trees, rows] routing arrays
    block = max(1, _ROUTE_CELLS // max(len(trees), 1))
    for lo in range(0, X.shape[0], block):
        rows = X[lo : lo + block]
        steps = np.empty((len(trees) + 1, len(rows)))  # row t: the prefix of t trees
        steps[0] = m.base_score
        if trees:
            np.multiply(m.learning_rate, _leaf_values(trees, rows), out=steps[1:])
        out[:, lo : lo + block] = np.cumsum(steps, axis=0, out=steps)[staged]
    return out[0] if counts is None else out


def _leaf_values(trees: list[Tree], X: np.ndarray) -> np.ndarray:
    """[len(trees), n_rows]: the leaf value each tree gives each row of X.

    The trees' node arrays are stacked and every (tree, row) pair descends
    one level per step, so the numpy call count follows the depth, not the
    number of trees.
    """
    sizes = [t.n_nodes for t in trees]
    first = np.cumsum(sizes) - sizes
    shift = np.repeat(first, sizes)
    feature = np.concatenate([t.feature for t in trees])
    threshold = np.concatenate([t.threshold for t in trees])
    left = np.concatenate([t.left for t in trees]) + shift  # read only at splits
    value = np.concatenate([t.value for t in trees])
    n = X.shape[0]
    node = np.repeat(first, n).reshape(len(trees), n)
    rows = np.arange(n)
    while True:
        feat = feature[node]
        internal = feat >= 0
        if not internal.any():
            break
        go_right = ~(X[rows, np.maximum(feat, 0)] < threshold[node])  # NaN goes right
        node = np.where(internal, left[node] + go_right, node)
    return value[node]


def gbt_importance(m: GbtModel) -> np.ndarray:
    """Per-feature split gain summed over all trees; never-split features are 0.

    Each tree's gains are added per feature in node order, then the trees in
    tree order.
    """
    total = np.zeros(m.n_features)
    for t in m.trees:
        split = t.feature >= 0
        total += np.bincount(t.feature[split], weights=t.gain[split], minlength=m.n_features)
    return total
