"""Independent reference implementations shared by the unit and acceptance tests.

Everything here recomputes results through a deliberately different code path
than the library (scalar loops, per-row traversals, finite differences) so the
tests compare two independent routes to the same numbers.
"""

import math

import numpy as np

from pue_forecast import rnn
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
        back = [rnn._gru_scan_backward(p, cache, d_seq, (
                    np.empty((B, p.hidden_dim)), np.empty((2, B, p.hidden_dim)),
                    np.empty((W * B, p.input_dim)), np.empty((W * B, p.input_dim))))
                for p, cache in zip(rnn._cells(layer), layer_caches)]
        grads = [a for g, _ in back for _, a in g.param_items()] + grads
        d_seq = back[0][1]
        for _, d in back[1:]:
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


def stump_sses(X, y):
    """(SSE, feature, midpoint) of every stump split, by feature, then threshold."""
    out = []
    for c in range(X.shape[1]):
        vals = np.unique(X[:, c])
        for a, b in zip(vals, vals[1:]):
            thr = 0.5 * (a + b)
            m = X[:, c] < thr
            sse = np.sum((y[m] - y[m].mean()) ** 2) + np.sum(
                (y[~m] - y[~m].mean()) ** 2
            )
            out.append((sse, c, thr))
    return out


def best_stump(X, y):
    """Exhaustive (feature, midpoint) stump search minimizing SSE; the first
    split in stump_sses order wins a tie."""
    return min(stump_sses(X, y), key=lambda s: s[0], default=(np.inf, None, None))


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
