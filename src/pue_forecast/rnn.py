"""GRU and bidirectional GRU sequence regressors with analytic backprop through time.

Cell recurrence per step:

    r_t    = sigmoid(W_r h_prev + U_r x_t + b_r)
    z_t    = sigmoid(W_z h_prev + U_z x_t + b_z)
    cand_t = tanh(W_h (r_t * h_prev) + U_h x_t + b_h)
    h_t    = (1 - z_t) * h_prev + z_t * cand_t

A layer is its cells: a GRU layer is one cell scanned left-to-right, a
bidirectional layer adds one scanned right-to-left, and the layer SUMS its
cells' per-step hidden states (elementwise, not concatenation). Stacked layers
consume the previous layer's full output sequence; the readout is an affine map
of the final layer's last-step state.

The two cells of a layer share nothing until that sum, so the right-to-left
scan (and its backward pass) runs on a second thread while the caller's thread
runs the left-to-right one; numpy releases the GIL inside its ufunc loops and
BLAS calls, so they overlap. Each cell reads only the shared input and writes
only its own buffers, and the results are summed in cell order after the join,
so every output is bitwise equal to running them one after the other. The
thread lives for one call: nothing outlives it, and an error in the reverse
direction reaches the caller. One-cell layers, and small batches, run on the
caller's thread, where handing the GIL back and forth between small numpy calls
costs more than the overlap saves.

The caller's thread allocates every buffer a scan or its backward pass fills
(_scan_buffers, _backward_buffers) before the second thread starts. glibc gives
each thread a malloc arena, and a new thread that starts before the last one
has handed its arena back gets a fresh one; arrays allocated there would leave
tens of MB resident in each arena, so peak memory would vary from run to run.

One scan serves every entry point; a cell step is a one-step scan. It carries
sequences time-major ([W, B, features]) and caches r, z, cand gate-major
([3, W, B, H]), so each step works in place on contiguous [B, H] blocks and each
gate's whole sequence is one [W*B, H] matrix. The input projections of all
steps are one product ahead of the recurrence; the backward pass writes the
gate grads over the cache and forms each gradient with one product over W*B rows.

Two linear-algebra strategies back the same scan code. The exact strategy
issues one BLAS vector-matrix product per window and step: each window takes
the same call with the same shape and strides in any batch, so its outputs are
bitwise independent of how windows are batched together; all
prediction/evaluation entry points use it. The fast strategy (np.matmul over
the batch) backs the training loop, where only run-to-run determinism matters.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, TypeVar

import numpy as np

MatMul = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
T = TypeVar("T")

# Fewest elements in one step's [B, H] block for which the reverse direction
# runs on a second thread. Below it, handing the GIL between the threads at
# every small numpy call costs more than the overlap saves: on 2 cores with one
# BLAS thread (H 4-50, one layer, training forward plus backward) the threaded
# layer took 1.3-4.9x the serial time at B*H <= 4096, and the crossover lay
# between B*H = 8192 and 32768, moving with the machine's load.
_THREAD_MIN_BLOCK = 1 << 14

_CELLS_PER_LAYER = {"gru": 1, "bigru": 2}


def _matmul_exact(a: np.ndarray, m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = a @ m as one BLAS vector-matrix product per row of a [N, K].

    Row k of the result is bitwise identical no matter how many rows a has.
    m is [K, M] or a stack [G, K, M], giving out [N, M] or [G, N, M].
    """
    np.matmul(a[..., None, :], m[..., None, :, :], out=out[..., None, :])
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid in place, as 0.5 * (1 + tanh(x / 2))."""
    x *= 0.5
    np.tanh(x, out=x)
    x += 1.0
    x *= 0.5
    return x


@dataclass
class GruParams:
    """Weights of one GRU cell; W_* act on the hidden state, U_* on the input."""

    W_r: np.ndarray
    W_z: np.ndarray
    W_h: np.ndarray
    U_r: np.ndarray
    U_z: np.ndarray
    U_h: np.ndarray
    b_r: np.ndarray
    b_z: np.ndarray
    b_h: np.ndarray

    def __post_init__(self):
        h, i = self.U_r.shape
        for name, arr in self.param_items():
            expect = (h, h) if name.startswith("W") else (h, i) if name.startswith("U") else (h,)
            if arr.shape != expect:
                raise ValueError(f"{name} has shape {arr.shape}, expected {expect}")

    @property
    def hidden_dim(self) -> int:
        return self.W_r.shape[0]

    @property
    def input_dim(self) -> int:
        return self.U_r.shape[1]

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    @staticmethod
    def zeros(input_dim: int, hidden_dim: int) -> "GruParams":
        h, i = hidden_dim, input_dim
        return GruParams(
            W_r=np.zeros((h, h)), W_z=np.zeros((h, h)), W_h=np.zeros((h, h)),
            U_r=np.zeros((h, i)), U_z=np.zeros((h, i)), U_h=np.zeros((h, i)),
            b_r=np.zeros(h), b_z=np.zeros(h), b_h=np.zeros(h),
        )


@dataclass
class BiGruLayer:
    """Forward and backward cells of one bidirectional layer (same dimensions)."""

    forward: GruParams
    backward: GruParams

    def __post_init__(self):
        same = (
            self.forward.hidden_dim == self.backward.hidden_dim
            and self.forward.input_dim == self.backward.input_dim
        )
        if not same:
            raise ValueError("forward/backward cell dimensions differ")

    @property
    def hidden_dim(self) -> int:
        return self.forward.hidden_dim

    @property
    def input_dim(self) -> int:
        return self.forward.input_dim

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        return [(f"{tag}.{n}", a) for tag, cell in (("fwd", self.forward), ("bwd", self.backward))
                for n, a in cell.param_items()]


def _cells(layer: GruParams | BiGruLayer) -> tuple[GruParams, ...]:
    """The cells of a layer in scan order; the second one scans right to left."""
    return (layer.forward, layer.backward) if isinstance(layer, BiGruLayer) else (layer,)


def _layer(cells: list[GruParams]) -> GruParams | BiGruLayer:
    """The layer made of `cells`, the inverse of _cells."""
    return BiGruLayer(*cells) if len(cells) == 2 else cells[0]


@dataclass
class Model:
    """A stack of GRU or BiGRU layers with a scalar affine readout."""

    layers: list
    w_o: np.ndarray
    b_o: np.ndarray  # shape (1,)
    mode: str

    def __post_init__(self):
        if self.mode not in _CELLS_PER_LAYER:
            raise ValueError(f"unknown mode {self.mode!r}")
        want = BiGruLayer if self.mode == "bigru" else GruParams
        if not self.layers or any(not isinstance(l, want) for l in self.layers):
            raise ValueError(f"{self.mode} model requires a non-empty stack of {want.__name__}")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.input_dim != prev.hidden_dim:
                raise ValueError("layer input_dim must equal previous hidden_dim")
        if self.w_o.shape != (self.layers[-1].hidden_dim,) or self.b_o.shape != (1,):
            raise ValueError("readout shapes inconsistent with final layer")

    @property
    def input_dim(self) -> int:
        return self.layers[0].input_dim

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        items = [(f"layer{k}.{n}", a) for k, layer in enumerate(self.layers)
                 for n, a in layer.param_items()]
        return items + [("head.w_o", self.w_o), ("head.b_o", self.b_o)]

    def param_arrays(self) -> list[np.ndarray]:
        return [a for _, a in self.param_items()]

    def n_params(self) -> int:
        return sum(a.size for a in self.param_arrays())


def init_params(
    n_features: int, hidden_dim: int, n_layers: int, mode: str, seed: int
) -> Model:
    """Deterministically initialise a model: weights uniform(-k, k) with
    k = 1/sqrt(hidden_dim), biases zero."""
    if n_features < 1 or hidden_dim < 1 or n_layers < 1:
        raise ValueError("dimensions must be positive")
    rng = np.random.default_rng(int(seed))
    k = 1.0 / np.sqrt(hidden_dim)

    def cell(input_dim: int) -> GruParams:
        h = hidden_dim
        mats = [rng.uniform(-k, k, size=s) for s in
                [(h, h)] * 3 + [(h, input_dim)] * 3]
        return GruParams(*mats, b_r=np.zeros(h), b_z=np.zeros(h), b_h=np.zeros(h))

    n_cells = _CELLS_PER_LAYER.get(mode, 1)  # Model rejects an unknown mode
    layers = []
    in_dim = n_features
    for _ in range(n_layers):
        layers.append(_layer([cell(in_dim) for _ in range(n_cells)]))
        in_dim = hidden_dim
    w_o = rng.uniform(-k, k, size=hidden_dim)
    return Model(layers=layers, w_o=w_o, b_o=np.zeros(1), mode=mode)


@dataclass
class CellCache:
    r: np.ndarray
    z: np.ndarray
    cand: np.ndarray
    h_prev: np.ndarray
    x: np.ndarray


def gru_cell(
    p: GruParams, h_prev: np.ndarray, x_t: np.ndarray
) -> tuple[np.ndarray, CellCache]:
    """One recurrence step on plain vectors; returns (h_t, cache).

    A one-step exact scan from h_prev, so bitwise equal to a W=1 window."""
    h_prev = np.asarray(h_prev, dtype=np.float64).reshape(-1)
    x_t = np.asarray(x_t, dtype=np.float64).reshape(-1)
    if h_prev.shape[0] != p.hidden_dim or x_t.shape[0] != p.input_dim:
        raise ValueError(
            f"expected h_prev[{p.hidden_dim}], x_t[{p.input_dim}]; "
            f"got {h_prev.shape[0]}, {x_t.shape[0]}"
        )
    out, cache = _gru_scan(p, x_t[None, None], _matmul_exact, h0=h_prev[None])
    r, z, cand = cache.gates[:, 0, 0]
    return out[0, 0], CellCache(r=r, z=z, cand=cand, h_prev=h_prev, x=x_t)


@dataclass
class ScanCache:
    seq: np.ndarray      # [W, B, I] input to the scan, time-major
    gates: np.ndarray    # [3, W, B, H] r, z, cand; the backward pass overwrites them
    states: np.ndarray   # [W + 1, B, H] h_t in time order plus the initial state
    rh: np.ndarray       # [W, B, H] r_t * h_prev
    reverse: bool        # scanned right to left, so the initial state is states[W]


@dataclass
class ModelCache:
    layers: list[list[ScanCache]]  # per layer, one scan cache per cell in cell order
    last_hidden: np.ndarray  # [B, H] final layer, last step


def _scan_buffers(seq: np.ndarray, hidden: int) -> tuple[np.ndarray, ...]:
    """Uninitialised gates, states, r * h and step scratch for a scan of seq [W, B, I]."""
    W, B, _ = seq.shape
    return (np.empty((3, W, B, hidden)), np.empty((W + 1, B, hidden)),
            np.empty((W, B, hidden)), np.empty((2, B, hidden)))


def _gru_scan(
    p: GruParams, seq: np.ndarray, mm: MatMul, reverse: bool = False,
    h0: np.ndarray | None = None, buffers: tuple[np.ndarray, ...] | None = None,
) -> tuple[np.ndarray, ScanCache]:
    """Scan [W, B, I] (right to left if reverse) from h0 [B, H], default zeros,
    into `buffers` from _scan_buffers, default new ones."""
    W, B, I = seq.shape
    H = p.hidden_dim
    gates, states, rh, buf = buffers or _scan_buffers(seq, H)
    mm(seq.reshape(W * B, I), np.stack([p.U_r.T, p.U_z.T, p.U_h.T]),
       gates.reshape(3, W * B, H))
    gates += np.stack([p.b_r, p.b_z, p.b_h])[:, None, None, :]
    W_rz = np.stack([p.W_r.T, p.W_z.T])
    W_h = np.ascontiguousarray(p.W_h.T)
    rev = int(reverse)
    states[W * rev] = 0.0 if h0 is None else h0
    for t in reversed(range(W)) if reverse else range(W):
        h, h_new = states[t + rev], states[t + 1 - rev]
        r, z, cand = gates[:, t]
        rz = gates[:2, t]
        rz += mm(h, W_rz, buf)
        _sigmoid(rz)
        np.multiply(r, h, out=rh[t])
        cand += mm(rh[t], W_h, buf[0])
        np.tanh(cand, out=cand)
        np.subtract(cand, h, out=h_new)
        h_new *= z
        h_new += h
    return states[1 - rev : 1 - rev + W], ScanCache(seq, gates, states, rh, reverse)


def _backward_buffers(cache: ScanCache) -> tuple[np.ndarray, ...]:
    """Zeroed state grad, step scratch, input grad and product scratch for
    backprop through the scan that filled `cache`."""
    (W, B, I), H = cache.seq.shape, cache.rh.shape[2]
    return np.zeros((B, H)), np.empty((2, B, H)), np.empty((W * B, I)), np.empty((W * B, I))


def _gru_scan_backward(
    p: GruParams, cache: ScanCache, d_out: np.ndarray,
    buffers: tuple[np.ndarray, ...] | None = None,
) -> tuple[GruParams, np.ndarray]:
    """Backprop one scan; returns (parameter grads as a GruParams, d_input_seq).

    Works in `buffers` from _backward_buffers, default new ones. Writes the
    gate pre-activation grads over cache.gates, so a cache serves one backward
    pass."""
    W, B, H = d_out.shape
    g, rev = cache.gates, int(cache.reverse)
    dh, (t1, t2), d_seq, d_more = buffers or _backward_buffers(cache)
    for t in range(W) if cache.reverse else reversed(range(W)):
        dh += d_out[t]
        r, z, cand = g[:, t]
        h_prev = cache.states[t + rev]
        np.subtract(cand, h_prev, out=t1)
        t1 *= dh
        t1 *= z
        np.multiply(cand, cand, out=cand)
        np.subtract(1.0, cand, out=cand)
        cand *= z
        cand *= dh                            # da_c
        np.subtract(1.0, z, out=t2)
        dh *= t2
        np.multiply(t1, t2, out=z)            # da_z
        np.matmul(cand, p.W_h, t1)            # grad of r * h_prev
        np.multiply(t1, r, out=t2)
        dh += t2
        t1 *= h_prev
        np.subtract(1.0, r, out=t2)
        t2 *= r
        np.multiply(t1, t2, out=r)            # da_r
        np.add(np.matmul(r, p.W_r, t1), np.matmul(z, p.W_z, t2), out=t2)
        dh += t2

    n = W * B
    da = g.reshape(3, n, H)
    da_t = da.transpose(0, 2, 1)
    d_U = np.matmul(da_t, cache.seq.reshape(n, -1))
    d_W = np.matmul(da_t[:2], cache.states[rev : rev + W].reshape(n, H))
    d_W_h = da_t[2] @ cache.rh.reshape(n, H)
    np.matmul(da[0], p.U_r, d_seq)
    d_seq += np.matmul(da[1], p.U_z, d_more)
    d_seq += np.matmul(da[2], p.U_h, d_more)
    return GruParams(*d_W, d_W_h, *d_U, *da.sum(axis=1)), d_seq.reshape(W, B, -1)


def _each_direction(runs: list[Callable[[], T]], block: int) -> list[T]:
    """[run() for run in runs]; a second run runs on a second thread meanwhile
    when `block`, the element count of one step's [B, H] block, is at least
    _THREAD_MIN_BLOCK, and after the first on this thread otherwise.

    The thread is joined before this returns, also when either side raises;
    an exception from the second run is re-raised here."""
    if len(runs) == 1 or block < _THREAD_MIN_BLOCK:
        return [run() for run in runs]
    first, second = runs
    with ThreadPoolExecutor(max_workers=1) as pool:
        rev = pool.submit(second)
        return [first(), rev.result()]


def _layer_forward(
    layer: GruParams | BiGruLayer, seq: np.ndarray, mm: MatMul
) -> tuple[np.ndarray, list[ScanCache]]:
    """Scan every cell of a layer over [W, B, I] and sum their outputs in cell order."""
    scans = _each_direction(
        [partial(_gru_scan, p, seq, mm, reverse=k == 1, buffers=_scan_buffers(seq, p.hidden_dim))
         for k, p in enumerate(_cells(layer))],
        seq.shape[1] * layer.hidden_dim,
    )
    out = scans[0][0]
    for more, _ in scans[1:]:
        out = out + more
    return out, [cache for _, cache in scans]


def gru_forward(layer: GruParams | BiGruLayer, X_seq: np.ndarray) -> np.ndarray:
    """Run one layer over a single window [W, input_dim], each cell from zero.

    For a BiGruLayer, row t of the result is the sum of the forward scan's
    state at t and the backward scan's state at t.
    """
    X_seq = np.asarray(X_seq, dtype=np.float64)
    if X_seq.ndim != 2 or X_seq.shape[1] != layer.input_dim:
        raise ValueError(f"expected [W, {layer.input_dim}] input, got {X_seq.shape}")
    return _layer_forward(layer, X_seq[:, None], _matmul_exact)[0][:, 0]


bigru_forward = gru_forward


def forward_batch(
    model: Model, X: np.ndarray, exact: bool = True
) -> tuple[np.ndarray, ModelCache]:
    """Forward a batch of windows [B, W, n_features] to scalar predictions [B]."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3 or X.shape[2] != model.input_dim:
        raise ValueError(
            f"expected windows [B, W, {model.input_dim}], got shape {X.shape}"
        )
    mm = _matmul_exact if exact else np.matmul
    seq = np.ascontiguousarray(X.transpose(1, 0, 2))
    layer_caches = []
    for layer in model.layers:
        seq, scans = _layer_forward(layer, seq, mm)
        layer_caches.append(scans)
    last = seq[-1]
    if exact:
        pred = np.full(X.shape[0], model.b_o[0])
        for j in range(last.shape[1]):
            pred += last[:, j] * model.w_o[j]
    else:
        pred = last @ model.w_o + model.b_o[0]
    return pred, ModelCache(layers=layer_caches, last_hidden=last)


def backward_batch(
    model: Model, cache: ModelCache, d_pred: np.ndarray
) -> Model:
    """Backprop scalar-prediction grads [B] to a Model-shaped gradient container.

    Consumes the cache: its gate values are overwritten with gradients.
    """
    if len(cache.layers) != len(model.layers):
        raise ValueError("cache does not match model layer stack")
    d_pred = np.asarray(d_pred, dtype=np.float64).reshape(-1)
    if cache.last_hidden.shape[0] != d_pred.shape[0]:
        raise ValueError("cache batch size does not match gradient batch size")
    dw_o = cache.last_hidden.T @ d_pred
    db_o = np.array([d_pred.sum()])

    grad_layers = []
    W = cache.layers[-1][0].seq.shape[0]
    d_seq = np.zeros((W, d_pred.shape[0], model.layers[-1].hidden_dim))
    d_seq[-1] = d_pred[:, None] * model.w_o[None, :]
    for layer, scans in zip(reversed(model.layers), reversed(cache.layers)):
        grads = _each_direction(
            [partial(_gru_scan_backward, p, c, d_seq, _backward_buffers(c))
             for p, c in zip(_cells(layer), scans)],
            d_seq.shape[1] * layer.hidden_dim,
        )
        grad_layers.append(_layer([g for g, _ in grads]))
        d_seq = grads[0][1]
        for _, more in grads[1:]:
            d_seq += more
    grad_layers.reverse()
    return Model(layers=grad_layers, w_o=dw_o, b_o=db_o, mode=model.mode)


def model_forward(model: Model, X_seq: np.ndarray) -> tuple[float, ModelCache]:
    """Predict a single window [W, n_features]; bitwise equal to batched prediction."""
    X_seq = np.asarray(X_seq, dtype=np.float64)
    if X_seq.ndim != 2:
        raise ValueError("X_seq must be a [W, n_features] matrix")
    pred, cache = forward_batch(model, X_seq[None], exact=True)
    return float(pred[0]), cache


def model_backward(model: Model, caches: ModelCache, dLoss_dPred: float) -> Model:
    """Gradients of a scalar loss through a single-window forward pass."""
    return backward_batch(model, caches, np.array([float(dLoss_dPred)]))


def predict_batch(model: Model, X: np.ndarray) -> np.ndarray:
    """Predictions for a batch of windows via the grouping-invariant exact path."""
    return forward_batch(model, X, exact=True)[0]
