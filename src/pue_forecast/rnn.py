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

Training and prediction run a batch in window tiles (TileRunner): near-equal
slices of the B windows, each small enough that one step's [rows, H] block
stays in a core's cache. A training tile runs its forward pass, its share of
the loss gradient and its backward pass before the next tile starts, so the
backward pass reads caches that are still warm, and memory follows the tile
size, not B. Tile i runs in slot i % 2: slot 0 on the caller's thread and slot
1 on a second thread that lives for one call (numpy releases the GIL inside
its ufunc loops and BLAS calls, so the two overlap). Each slot adds its tiles'
gradients in tile order and the two sums are added slot 0 first after the
join; predictions land in their own rows. So every result is bitwise the same
whichever thread ran a slot and however the two interleaved. A batch of one
tile runs on the caller's thread, where handing the GIL back and forth between
small numpy calls would cost more than the overlap saves. The thread is joined
also when either side raises, and an error in slot 1 reaches the caller.

Every array a tile fills comes from its slot's Workspace: one block, made on
the caller's thread before the second thread starts and reused by every tile
of the slot in every batch the runner runs, so a training run's held-out
evaluations reuse the blocks of its epochs. A block is an anonymous page
mapping, not heap memory, and goes back to the operating system when the last
array carved from it goes. Heap blocks of this size would depend on glibc's
per-thread malloc arenas and its rules for keeping freed memory, which left
tens of MB resident after their runner was gone and made peak memory vary
from run to run.

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

import math
import mmap
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

MatMul = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
Take = Callable[[tuple], np.ndarray]
Grads = Optional[list]

# Most elements in one step's [rows, H] block of a tile: a tile has at most
# ceil(_TILE_ELEMENTS / H) rows (328 at H=50). On 2 cores with one BLAS thread,
# one cell's forward plus backward pass over B=2395 windows at H=50 and I=8
# took 78-82 ms in one piece and 52-53 ms tile by tile (I=50: 105 against
# 58-68 ms). A batch of one tile stays on the caller's thread: with blocks of
# B*H <= 4096, a second thread took 1.3-4.9x the serial time in GIL handovers.
_TILE_ELEMENTS = 1 << 14

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
    bufs = _scan_buffers(np.empty, 1, 1, p.hidden_dim)
    out, cache = _gru_scan(p, x_t[None, None], _matmul_exact, bufs, h0=h_prev[None])
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
    take: Take  # where the backward pass gets its arrays


class Workspace:
    """The arrays of the passes in `needs`, (rows, backward) pairs: a forward
    pass over up to `rows` windows of `steps` steps, and with `backward` its
    backward pass too. They are carved from one block, page-mapped here, that
    holds the largest need; a forward pass uses the front of the block, because
    its arrays come before the backward pass's.

    Each forward_batch that uses it starts again at the front of the block,
    which ends the life of the arrays, the cache included, of the one before.
    """

    def __init__(self, model: Model, steps: int, needs: list[tuple[int, bool]]):
        def size(rows: int, backward: bool) -> int:
            shapes: list[tuple] = []
            _forward_buffers(model, steps, rows, shapes.append)
            if backward:
                _backward_buffers(model, steps, rows, shapes.append)
            return sum(math.prod(shape) for shape in shapes)

        n = max(size(rows, backward) for rows, backward in needs)
        # an empty batch needs no values, but a mapping needs at least one byte
        self._block = np.frombuffer(mmap.mmap(-1, 8 * max(n, 1)), dtype=np.float64)
        self._used = 0
        # where TileRunner.run sums the gradients of the workspace's tiles
        backward = any(backward for _, backward in needs)
        self.grad_sum = [np.empty_like(a) for a in model.param_arrays()] if backward else None

    def restart(self) -> Take:
        """Hand out the block from its front again; returns self.take."""
        self._used = 0
        return self.take

    def take(self, shape: tuple) -> np.ndarray:
        """The next uninitialised, contiguous `shape` array of the block."""
        end = self._used + math.prod(shape)
        if end > self._block.size:
            raise ValueError(f"workspace of {self._block.size} values is too small "
                             f"for a further {shape} array")
        out = self._block[self._used : end].reshape(shape)
        self._used = end
        return out


def _scan_buffers(take: Take, W: int, B: int, H: int) -> tuple[np.ndarray, ...]:
    """Gates, states, r * h and step scratch for a scan of B windows of W steps."""
    return take((3, W, B, H)), take((W + 1, B, H)), take((W, B, H)), take((2, B, H))


def _layer_buffers(layer: GruParams | BiGruLayer, W: int, B: int, take: Take) -> tuple:
    """(scan buffers of each cell, the array two cells' outputs are summed into
    or None for one cell) of a layer over B windows of W steps."""
    H = layer.hidden_dim
    scans = [_scan_buffers(take, W, B, H) for _ in _cells(layer)]
    return scans, take((W, B, H)) if len(scans) > 1 else None


def _forward_buffers(model: Model, W: int, B: int, take: Take) -> tuple:
    """Every array a forward pass over B windows of W steps fills: the
    time-major input, each layer's _layer_buffers and the predictions."""
    return (take((W, B, model.input_dim)),
            [_layer_buffers(layer, W, B, take) for layer in model.layers],
            take((B,)))


def _backward_buffers(model: Model, W: int, B: int, take: Take) -> tuple:
    """Every array a backward pass over B windows of W steps fills: the final
    layer's output grad, then per layer and cell the state grad, step scratch,
    input grad and product scratch. The bottom layer's cells go without the
    last two, because nothing reads the gradient of the model's input."""

    def cell(layer, input_grad: bool) -> tuple:
        H, I, n = layer.hidden_dim, layer.input_dim, W * B
        if not input_grad:
            return take((B, H)), take((2, B, H)), None, None
        return take((B, H)), take((2, B, H)), take((n, I)), take((n, I))

    return (take((W, B, model.layers[-1].hidden_dim)),
            [[cell(layer, k > 0) for _ in _cells(layer)] for k, layer in enumerate(model.layers)])


def _gru_scan(
    p: GruParams, seq: np.ndarray, mm: MatMul, buffers: tuple[np.ndarray, ...],
    reverse: bool = False, h0: np.ndarray | None = None,
) -> tuple[np.ndarray, ScanCache]:
    """Scan [W, B, I] (right to left if reverse) from h0 [B, H], default zeros,
    into `buffers` from _scan_buffers."""
    W, B, I = seq.shape
    H = p.hidden_dim
    gates, states, rh, buf = buffers
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


def _gru_scan_backward(
    p: GruParams, cache: ScanCache, d_out: np.ndarray, buffers: tuple,
) -> tuple[GruParams, np.ndarray | None]:
    """Backprop one scan; returns (parameter grads as a GruParams, d_input_seq).

    Works in one cell's `buffers` from _backward_buffers; without an input grad
    buffer it skips d_input_seq and returns None for it. Writes the gate
    pre-activation grads over cache.gates, so a cache serves one backward pass."""
    W, B, H = d_out.shape
    g, rev = cache.gates, int(cache.reverse)
    dh, (t1, t2), d_seq, d_more = buffers
    dh.fill(0.0)
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
    grads = GruParams(*d_W, d_W_h, *d_U, *da.sum(axis=1))
    if d_seq is None:
        return grads, None
    np.matmul(da[0], p.U_r, d_seq)
    d_seq += np.matmul(da[1], p.U_z, d_more)
    d_seq += np.matmul(da[2], p.U_h, d_more)
    return grads, d_seq.reshape(W, B, -1)


def _layer_forward(
    layer: GruParams | BiGruLayer, seq: np.ndarray, mm: MatMul, buffers: tuple
) -> tuple[np.ndarray, list[ScanCache]]:
    """Scan every cell of a layer over [W, B, I] into `buffers` from
    _layer_buffers, one after the other, and sum their outputs in cell order."""
    scan_buffers, total = buffers
    scans = [_gru_scan(p, seq, mm, bufs, reverse=k == 1)
             for k, (p, bufs) in enumerate(zip(_cells(layer), scan_buffers))]
    out = scans[0][0]
    if total is not None:
        out = np.add(out, scans[1][0], out=total)
    return out, [cache for _, cache in scans]


def gru_forward(layer: GruParams | BiGruLayer, X_seq: np.ndarray) -> np.ndarray:
    """Run one layer over a single window [W, input_dim], each cell from zero.

    For a BiGruLayer, row t of the result is the sum of the forward scan's
    state at t and the backward scan's state at t.
    """
    X_seq = np.asarray(X_seq, dtype=np.float64)
    if X_seq.ndim != 2 or X_seq.shape[1] != layer.input_dim:
        raise ValueError(f"expected [W, {layer.input_dim}] input, got {X_seq.shape}")
    bufs = _layer_buffers(layer, X_seq.shape[0], 1, np.empty)
    return _layer_forward(layer, X_seq[:, None], _matmul_exact, bufs)[0][:, 0]


bigru_forward = gru_forward


def _windows(model: Model, X: np.ndarray) -> np.ndarray:
    """X as float64 windows [B, W, n_features] of this model."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3 or X.shape[2] != model.input_dim:
        raise ValueError(
            f"expected windows [B, W, {model.input_dim}], got shape {X.shape}"
        )
    return X


def forward_batch(
    model: Model, X: np.ndarray, exact: bool = True, workspace: Workspace | None = None,
) -> tuple[np.ndarray, ModelCache]:
    """Forward a batch of windows [B, W, n_features] to scalar predictions [B].

    The predictions, the cache and the arrays a later backward_batch fills come
    from `workspace` if one is given, and are allocated otherwise."""
    X = _windows(model, X)
    B, W, _ = X.shape
    take = np.empty if workspace is None else workspace.restart()
    seq, layer_buffers, pred = _forward_buffers(model, W, B, take)
    np.copyto(seq, X.transpose(1, 0, 2))
    mm = _matmul_exact if exact else np.matmul
    layer_caches = []
    for layer, buffers in zip(model.layers, layer_buffers):
        seq, scans = _layer_forward(layer, seq, mm, buffers)
        layer_caches.append(scans)
    last = seq[-1]
    if exact:
        pred.fill(model.b_o[0])
        for j in range(last.shape[1]):
            pred += last[:, j] * model.w_o[j]
    else:
        np.matmul(last, model.w_o, out=pred)
        pred += model.b_o[0]
    return pred, ModelCache(layers=layer_caches, last_hidden=last, take=take)


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

    W, B = cache.layers[-1][0].seq.shape[:2]
    d_seq, layer_buffers = _backward_buffers(model, W, B, cache.take)
    d_seq.fill(0.0)
    np.multiply(d_pred[:, None], model.w_o[None, :], out=d_seq[-1])
    grad_layers = []
    for layer, scans, buffers in zip(reversed(model.layers), reversed(cache.layers),
                                     reversed(layer_buffers)):
        grads = [_gru_scan_backward(p, c, d_seq, bufs)
                 for p, c, bufs in zip(_cells(layer), scans, buffers)]
        grad_layers.append(_layer([g for g, _ in grads]))
        d_seq = grads[0][1]
        if d_seq is not None:
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


def _accumulate(total: Grads, grads: Grads, into: list | None) -> Grads:
    """total + grads, summed in place; a None total starts as a copy of grads
    in the arrays `into`, and None grads leave total as it is."""
    if grads is not None:
        if total is None:
            total = into
            for t, g in zip(total, grads):
                np.copyto(t, g)
        else:
            for t, g in zip(total, grads):
                t += g
    return total


class TileRunner:
    """Runs batches of windows of `steps` steps in window tiles, with one
    Workspace per slot, which this thread allocates. `batches` lists the
    (B, backward) of every batch size it will run, such as a training run's
    epochs and its held-out evaluations, and each workspace holds the largest
    tile of any of them. Tiles of B windows have near-equal sizes of at most
    ceil(_TILE_ELEMENTS / H) rows, so they depend only on B and H.
    """

    def __init__(self, model: Model, steps: int, batches: list[tuple[int, bool]]):
        self._rows = -(-_TILE_ELEMENTS // max(layer.hidden_dim for layer in model.layers))
        tiles = [(self.tiles(B), backward) for B, backward in batches]
        needs = [(max(b - a for a, b in t), backward) for t, backward in tiles]
        self.workspaces = [Workspace(model, steps, needs)
                           for _ in range(min(2, max(len(t) for t, _ in tiles)))]

    def tiles(self, B: int) -> list[tuple[int, int]]:
        """The tiles [a, b) of a batch of B windows."""
        n = max(1, -(-B // self._rows))
        bounds = [B * i // n for i in range(n + 1)]
        return list(zip(bounds, bounds[1:]))

    def run(self, B: int, tile: Callable[[Workspace, int, int], Grads]) -> Grads:
        """Call tile(workspace, a, b) for every tile [a, b) of a batch of B
        windows, one of the runner's batches, and return the sum of the
        gradient lists it returns, None for none; the sum is valid until the
        next run.

        Tile i runs in slot i % 2 with that slot's workspace: slot 0 on this
        thread, slot 1 meanwhile on a second thread, which is joined before
        this returns, also when either side raises; an error from slot 1 is
        re-raised here (chained to slot 0's if both fail). Each slot adds its
        tiles' lists in tile order into its workspace's grad_sum, and slot 1's
        sum is added to slot 0's."""

        tiles = self.tiles(B)

        def run_slot(slot: int) -> Grads:
            workspace, total = self.workspaces[slot], None
            for a, b in tiles[slot::2]:
                # a tile's gradients are freed before the next tile allocates its own
                total = _accumulate(total, tile(workspace, a, b), workspace.grad_sum)
            return total

        if len(tiles) == 1:
            return run_slot(0)
        with ThreadPoolExecutor(max_workers=1) as pool:
            second = pool.submit(run_slot, 1)
            try:
                total = run_slot(0)
            finally:  # joins slot 1, and raises its error over slot 0's
                more = second.result()
        return _accumulate(total, more, self.workspaces[0].grad_sum)


def predict_batch(model: Model, X: np.ndarray, runner: TileRunner | None = None) -> np.ndarray:
    """Predictions for a batch of windows via the grouping-invariant exact path,
    tile by tile, in the workspaces of `runner`, which must list X's batch size
    (a training run's runner lists its held-out set), or of one made for X."""
    X = _windows(model, X)
    B = X.shape[0]
    pred = np.empty(B)

    def tile(workspace: Workspace, a: int, b: int) -> None:
        pred[a:b] = forward_batch(model, X[a:b], exact=True, workspace=workspace)[0]

    if runner is None:
        runner = TileRunner(model, X.shape[1], [(B, False)])
    runner.run(B, tile)
    return pred
