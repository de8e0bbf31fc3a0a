"""Independent reference implementations shared by the unit and acceptance tests.

Everything here recomputes results through a deliberately different code path
than the library (scalar loops, per-row traversals, finite differences) so the
tests compare two independent routes to the same numbers.
"""

import math

import numpy as np

from pue_forecast import rnn
from pue_forecast.gbt import gbt_fit, gbt_importance, gbt_predict
from pue_forecast.rfecv import make_folds
from pue_forecast.rnn import GruParams, forward_batch, model_backward, model_forward


# ---------------------------------------------------------------- gradients

def finite_diff_worst_rel_err(model, X_seq, eps=1e-5):
    """Perturb every parameter of `model` and compare against analytic BPTT.

    Returns the worst relative error max|num - ana| / max(1e-8, |num| + |ana|)
    over all parameters for the scalar prediction on one window.
    """
    _pred, cache = model_forward(model, X_seq)
    grads = model_backward(model, cache, 1.0)
    worst = 0.0
    for p, g in zip(model.param_arrays(), grads.param_arrays()):
        flat_p = p.ravel()
        flat_g = g.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + eps
            up, _ = forward_batch(model, X_seq[None], exact=False)
            flat_p[i] = orig - eps
            dn, _ = forward_batch(model, X_seq[None], exact=False)
            flat_p[i] = orig
            num = (up[0] - dn[0]) / (2.0 * eps)
            rel = abs(num - flat_g[i]) / max(1e-8, abs(num) + abs(flat_g[i]))
            worst = max(worst, rel)
    return worst


def random_config_check(seed, max_features=4, max_hidden=4, max_layers=2,
                        max_window=5, mode="bigru", eps=1e-5):
    """Draw a random small model + window and gradient-check it."""
    from pue_forecast.rnn import init_params

    rng = np.random.default_rng(seed)
    f = int(rng.integers(1, max_features + 1))
    h = int(rng.integers(1, max_hidden + 1))
    layers = int(rng.integers(1, max_layers + 1))
    w = int(rng.integers(1, max_window + 1))
    model = init_params(f, h, layers, mode, seed=seed)
    X = rng.standard_normal((w, f))
    return finite_diff_worst_rel_err(model, X, eps=eps)


# ------------------------------------------------------------ clipped Adam

def clipped_adam(cfg, X, y, epochs):
    """Parameters in payload order after `epochs` full-batch Adam steps from
    init_params on the mean squared error of windows X, targets y, and the
    gradient norm of each step.

    Each step backpropagates the whole batch at once, so it matches training
    whose batch is one tile. The norm sums each gradient array's squares on
    its own and adds those sums in Python; a gradient whose norm exceeds
    cfg.grad_clip is scaled down to it. The update is the Adam recurrence in
    Python floats, one element at a time."""
    from pue_forecast.rnn import backward_batch, init_params

    model = init_params(X.shape[2], cfg.hidden_dim, cfg.layers, cfg.mode, cfg.seed)
    b1, b2, B = cfg.beta1, cfg.beta2, X.shape[0]
    moments = [[(0.0, 0.0)] * a.size for a in model.param_arrays()]
    norms = []
    for t in range(1, epochs + 1):
        pred, cache = forward_batch(model, X, exact=False)
        grads = backward_batch(model, cache, 2.0 * (pred - y) / B).param_arrays()
        norm = math.sqrt(sum(float((g * g).sum()) for g in grads))
        norms.append(norm)
        scale = cfg.grad_clip / norm if norm > cfg.grad_clip else None
        for p, g, mv in zip(model.param_arrays(), grads, moments):
            flat = p.reshape(-1)
            for i, gi in enumerate(g.reshape(-1).tolist()):
                if scale is not None:
                    gi = gi * scale
                m, v = mv[i]
                m = b1 * m + (1.0 - b1) * gi
                v = b2 * v + (1.0 - b2) * (gi * gi)
                mv[i] = (m, v)
                flat[i] = flat[i] - cfg.learning_rate * (m / (1.0 - b1**t)) / (
                    math.sqrt(v / (1.0 - b2**t)) + cfg.eps)
    return np.concatenate([a.ravel() for a in model.param_arrays()]), norms


# ------------------------------------------------------ serial layer scans

def serial_cells(model, X, d_pred, exact):
    """forward_batch predictions and backward_batch gradient arrays of a gru or
    bigru model, with the cells of every layer scanned one after the other
    through the library's scan kernels in freshly allocated buffers, and the
    input gradient formed for every layer, the bottom one included."""
    mm = rnn._matmul_exact if exact else np.matmul
    seq = np.ascontiguousarray(X.transpose(1, 0, 2))
    caches = []
    for layer in model.layers:
        W, B, _ = seq.shape
        scans = [rnn._gru_scan(p, seq, mm, rnn._scan_buffers(np.empty, W, B, p.hidden_dim),
                               reverse=k == 1)
                 for k, p in enumerate(rnn._cells(layer))]
        caches.append([cache for _, cache in scans])
        seq = scans[0][0]
        for out, _ in scans[1:]:
            seq = seq + out
    last = seq[-1]
    if exact:
        pred = np.full(X.shape[0], model.b_o[0])
        for j in range(last.shape[1]):
            pred += last[:, j] * model.w_o[j]
    else:
        pred = last @ model.w_o + model.b_o[0]

    d_seq = np.zeros_like(seq)
    d_seq[-1] = d_pred[:, None] * model.w_o[None, :]
    grads = []
    for layer, layer_caches in zip(reversed(model.layers), reversed(caches)):
        W, B, _ = d_seq.shape
        cells = [(p, GruParams.zeros(p.input_dim, p.hidden_dim)) for p in rnn._cells(layer)]
        back = [rnn._gru_scan_backward(p, cache, d_seq, (
                    np.empty((B, p.hidden_dim)), np.empty((2, B, p.hidden_dim)),
                    np.empty((W * B, p.input_dim)), np.empty((W * B, p.input_dim))), g)
                for (p, g), cache in zip(cells, layer_caches)]
        grads = [a for _, g in cells for _, a in g.param_items()] + grads
        d_seq = back[0]
        for d in back[1:]:
            d_seq = d_seq + d
    grads += [last.T @ d_pred, np.array([d_pred.sum()])]
    return pred, grads


# ------------------------------------------------------------- GRU hand math

def hand_cell():
    """Fixed 2-unit, 1-input cell used by the scalar-arithmetic trace."""
    return GruParams(
        W_r=np.array([[0.10, -0.20], [0.30, 0.05]]),
        W_z=np.array([[-0.15, 0.25], [0.10, -0.30]]),
        W_h=np.array([[0.20, 0.10], [-0.25, 0.15]]),
        U_r=np.array([[0.50], [-0.40]]),
        U_z=np.array([[0.30], [0.20]]),
        U_h=np.array([[-0.60], [0.35]]),
        b_r=np.array([0.01, -0.02]),
        b_z=np.array([0.03, 0.04]),
        b_h=np.array([-0.05, 0.06]),
    )


def scalar_trace(p, h_prev, x):
    """One recurrence step written out as plain scalar arithmetic."""
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    r, z, c, h = [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]
    for i in range(2):
        a_r = p.W_r[i][0] * h_prev[0] + p.W_r[i][1] * h_prev[1] + p.U_r[i][0] * x + p.b_r[i]
        a_z = p.W_z[i][0] * h_prev[0] + p.W_z[i][1] * h_prev[1] + p.U_z[i][0] * x + p.b_z[i]
        r[i] = sig(a_r)
        z[i] = sig(a_z)
    for i in range(2):
        a_h = (
            p.W_h[i][0] * (r[0] * h_prev[0])
            + p.W_h[i][1] * (r[1] * h_prev[1])
            + p.U_h[i][0] * x
            + p.b_h[i]
        )
        c[i] = math.tanh(a_h)
        h[i] = (1.0 - z[i]) * h_prev[i] + z[i] * c[i]
    return r, z, c, h


# ----------------------------------------------------------------- metrics

def loop_metrics(y_true, y_pred):
    """Naive sequential recomputation, independent of the vectorized path."""
    n = len(y_true)
    se = 0.0
    ae = 0.0
    for i in range(n):
        d = y_pred[i] - y_true[i]
        se += d * d
        ae += abs(d)
    mean = sum(y_true) / n
    ss_tot = sum((x - mean) ** 2 for x in y_true)
    r2 = None if ss_tot == 0.0 else 1.0 - se / ss_tot
    return se / n, ae / n, r2


# -------------------------------------------------------------- windowing

def loop_windows(X, y, W):
    """Sliding windows cut row by row: window k is rows k..k+W-1, target y[k+W-1]."""
    windows, targets = [], []
    for k in range(len(X) - W + 1):
        windows.append([list(X[k + j]) for j in range(W)])
        targets.append(y[k + W - 1])
    return np.array(windows, dtype=np.float64).reshape(-1, W, X.shape[1]), np.array(targets)


def loop_train_rows(n, fraction):
    """Largest row count k with k <= fraction * n, found by counting up."""
    k = 0
    while k + 1 <= fraction * n:
        k += 1
    return k


# --------------------------------------------------------------------- GBT

def walk_predict(model, X):
    """Independent per-row traversal of the stored node arrays."""
    out = np.empty(X.shape[0])
    for r, row in enumerate(X):
        total = model.base_score
        for tree in model.trees:
            i = 0
            while tree.feature[i] >= 0:
                if row[tree.feature[i]] < tree.threshold[i]:
                    i = int(tree.left[i])
                else:
                    i = int(tree.right[i])
            total += model.learning_rate * tree.value[i]
        out[r] = total
    return out


def cut_threshold(a, b):
    """Threshold between adjacent distinct values a < b: their midpoint when it
    lies above a and at most b; b when it rounds down to a (adjacent floats)
    or overflows."""
    mid = 0.5 * (float(a) + float(b))  # Python floats overflow to inf quietly
    return mid if a < mid <= b else float(b)


def stump_sses(X, y):
    """(SSE, feature, threshold) of every stump split, by feature, then threshold."""
    out = []
    for c in range(X.shape[1]):
        vals = np.unique(X[:, c])
        for a, b in zip(vals, vals[1:]):
            thr = cut_threshold(a, b)
            m = X[:, c] < thr
            sse = np.sum((y[m] - y[m].mean()) ** 2) + np.sum(
                (y[~m] - y[~m].mean()) ** 2
            )
            out.append((sse, c, thr))
    return out


def best_stump(X, y):
    """Exhaustive (feature, threshold) stump search minimizing SSE; the first
    split in stump_sses order wins a tie."""
    return min(stump_sses(X, y), key=lambda s: s[0], default=(np.inf, None, None))


def greedy_tree(X, r, max_depth, lam):
    """Exact-greedy regression tree on residuals `r`, grown by plain recursion.

    The split finding of Chen & Guestrin, "XGBoost: A Scalable Tree Boosting
    System" (KDD 2016), Algorithm 1. Per node: sort each feature, score every
    midpoint between adjacent distinct values by
    gain = L^2/(nl+lam) + R^2/(nr+lam) - T^2/(n+lam) from masked sums, and
    split when the best gain is above 0; ties go to the lowest feature, then
    the lowest threshold. A leaf is {"value"}; a split is {"feature",
    "threshold", "gain", "left", "right"}. A node that scored candidates also
    carries "margin": how far its decision is from flipping (the winner's
    gain over the runner-up and over 0, or a leaf's best gain below 0).
    """
    def grow(rows, depth):
        res = r[rows]
        node = {"value": res.sum() / (len(rows) + lam)}
        if depth == max_depth:
            return node
        total = res.sum()
        scored = []  # (gain, feature, threshold) by feature, then threshold
        for c in range(X.shape[1]):
            x = X[rows, c]
            vals = np.unique(x)  # sorted
            for a, b in zip(vals, vals[1:]):
                thr = cut_threshold(a, b)
                left = x < thr
                nl = int(left.sum())
                L = res[left].sum()
                gain = (L * L / (nl + lam) + (total - L) ** 2 / (len(rows) - nl + lam)
                        - total * total / (len(rows) + lam))
                scored.append((gain, c, thr))
        if not scored:
            return node
        best = max(scored, key=lambda s: s[0])  # max keeps the first of equals
        runner_up = max((s[0] for s in scored if s is not best), default=-np.inf)
        if best[0] <= 0.0:
            node["margin"] = -best[0]
            return node
        gain, c, thr = best
        left = X[rows, c] < thr
        node.update(feature=c, threshold=thr, gain=gain,
                    margin=gain - max(runner_up, 0.0),
                    left=grow(rows[left], depth + 1), right=grow(rows[~left], depth + 1))
        return node

    return grow(np.arange(len(r)), 0)


def greedy_route(node, row):
    """The leaf value a greedy_tree gives one row."""
    while "feature" in node:
        node = node["left"] if row[node["feature"]] < node["threshold"] else node["right"]
    return node["value"]


def replay_residuals(model, X, y):
    """Yield (tree, residuals-before-tree) pairs by replaying the boosting path."""
    pred = np.full(len(y), model.base_score)
    for tree in model.trees:
        yield tree, y - pred
        pred = pred + model.learning_rate * tree.predict(X)


def leaf_closed_form_worst_err(model, X, y):
    """Route rows through each tree independently and compare every leaf value
    against sum(residuals) / (count + lambda)."""
    worst = 0.0
    for tree, resid in replay_residuals(model, X, y):
        leaves = {}
        for r in range(len(y)):
            i = 0
            while tree.feature[i] >= 0:
                i = (
                    int(tree.left[i])
                    if X[r, tree.feature[i]] < tree.threshold[i]
                    else int(tree.right[i])
                )
            leaves.setdefault(i, []).append(resid[r])
        for i, rs in leaves.items():
            expected = np.sum(rs) / (len(rs) + model.reg_lambda)
            worst = max(worst, abs(tree.value[i] - expected))
    return worst


def tree_depth(tree):
    """Longest root-to-leaf path of a fitted tree, counted in splits."""
    def walk(i):
        if tree.feature[i] < 0:
            return 0
        return 1 + max(walk(int(tree.left[i])), walk(int(tree.right[i])))
    return walk(0)


def rfecv_from_scratch(ds, cfg, step, folds):
    """RFECV for one GbtConfig with every count's fits grown from scratch.

    Per count: one `gbt_fit` per fold's training rows scored by the mean of
    the folds' held-out MSEs, and, above one feature, one on all rows whose
    importances drop the `step` lowest (stable argsort, so the lowest index
    goes first among ties). Returns (elimination order, MSE by count,
    selected names).
    """
    def fit(rows, cols):
        return gbt_fit(ds.X[np.ix_(rows, cols)], ds.y[rows], cfg.n_estimators,
                       cfg.learning_rate, cfg.max_depth, cfg.reg_lambda)

    active, order, mses = list(range(ds.n_features)), [], {}
    while True:
        fold_mses = [
            float(np.mean((gbt_predict(fit(tr, active), ds.X[np.ix_(va, active)])
                           - ds.y[va]) ** 2))
            for tr, va in make_folds(ds.n_samples, folds)
        ]
        mses[len(active)] = float(np.mean(fold_mses))
        if len(active) == 1:
            break
        imp = gbt_importance(fit(np.arange(ds.n_samples), active))
        drop = sorted(np.argsort(imp, kind="stable")[: min(step, len(active) - 1)].tolist())
        order += [active[i] for i in drop]
        active = [c for i, c in enumerate(active) if i not in drop]
    best = min(mses, key=lambda c: (mses[c], c))
    gone = set(order[: ds.n_features - best])
    return order, mses, [n for i, n in enumerate(ds.feature_names) if i not in gone]


def model_dump(model):
    """Text rendering of every split and leaf of a fitted ensemble."""
    lines = [f"base_score={model.base_score!r} lr={model.learning_rate!r}"]

    def walk(tree, i, pad):
        if tree.feature[i] < 0:
            lines.append(f"{pad}leaf value={tree.value[i]:.6g}")
        else:
            lines.append(f"{pad}if x[{int(tree.feature[i])}] < {tree.threshold[i]:.6g}:")
            walk(tree, int(tree.left[i]), pad + "  ")
            lines.append(f"{pad}else:")
            walk(tree, int(tree.right[i]), pad + "  ")

    for k, tree in enumerate(model.trees):
        lines.append(f"tree {k}:")
        walk(tree, 0, "")
    return "\n".join(lines)
