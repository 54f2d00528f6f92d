"""Dense float64 tensors with reverse-mode automatic differentiation.

Every differentiable op records a backward closure on its output; calling
``backward`` on a scalar loss replays the closures of the subgraph that can
reach the loss, in exact reverse execution order. Broadcasting in binary ops
is restricted to scalar-vs-tensor so shape bugs surface as errors instead of
silently stretched arrays.

Per-node Python overhead, not arithmetic, dominates the model's small graphs,
so its layers run as fused ops: one graph node each, with a hand-written
backward that skips the gradient of any operand with requires_grad=False
(``matmul`` skips them too):

* ``linear``: ``x @ W.T + b``;
* ``linear_split``: ``linear`` of ``[u | h]`` rows that share one h, with
  h's product computed once as a bias row;
* ``layernorm_affine``: row layer norm, then scale and shift;
* ``causal_attention``: multi-head causal self-attention, all heads at once
  on (heads, n, d_head) arrays;
* ``planar_step``: one planar-flow map from a packed ``[a | w | b]`` row,
  with the invertibility reparameterization folded in;
* ``energy_score``: the fair energy score of an ensemble.

Each fused op does the arithmetic of the unfused composition of elementary
ops it replaces, in the same order; the tests keep those compositions as
references and require agreement within 1e-12.

Sampling and training run several windows per pass. The ops the model's
forward pass and its losses use accept a leading window axis, (B, rows,
width) arrays, recording a graph or not; a 2-D operand such as a weight or
the prefix broadcasts over it. Every product stays one BLAS call per window
(a batched ``(B, r, k) @ (k, n)``, never the windows stacked into the rows of
one 2-D GEMM), so each window's values are bitwise those of its own 2-D pass.
In backward, each window's gradient is the 2-D product or sum of its own
pass, and a 2-D operand shared across windows takes them one window at a
time, window B-1 first: the order in which one backward over per-window
graphs, built for windows 0..B-1, reaches an operand that each window's
graph uses once. Every model weight is such an operand, so a batch's
gradients are bitwise those of its per-window graphs.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "Tape",
    "no_grad",
    "add_rowvec",
    "mul_rowvec",
    "repeat_rows",
    "mean_rows",
    "sum_in_order",
    "concat_rows",
    "concat_cols",
    "matmul",
    "softmax_rows",
    "layernorm_rows",
    "linear",
    "linear_split",
    "layernorm_affine",
    "causal_attention",
    "planar_reparameterize",
    "planar_step",
    "pairwise_spread",
    "energy_score",
    "grad_check",
    "zero_grads",
]


class ShapeError(ValueError):
    """Raised when operand shapes violate an op's contract."""


# Monotone creation counter; ordering backward replay by it reproduces the
# exact reverse of forward execution order.
_CREATION_COUNTER = itertools.count()

# Whether ops record graph nodes; ``no_grad`` clears it for a block.
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Forward-only block: ops compute the same values but record no graph.

    Nests, and restores the previous state even when the block raises. The
    switch is module state, so do not enter it from concurrent threads.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """A float64 ndarray plus the bookkeeping needed for reverse mode.

    Attributes:
        data: the value, always a float64 ndarray.
        requires_grad: whether gradients should be accumulated here.
        grad: accumulated gradient, allocated lazily; stays None on tensors
            with requires_grad=False (frozen weights never grow grad buffers).
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents", "_seq", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._seq = next(_CREATION_COUNTER)

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- gradient plumbing --------------------------------------------------

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g`` into this tensor's grad buffer (the first ``g`` is copied)."""
        if not self.requires_grad:
            return
        if self.grad is None:
            if g.shape != self.data.shape:
                raise ShapeError(f"gradient of shape {g.shape} for a tensor of shape {self.shape}")
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph."""
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            return
        self.accumulate_grad(np.ones_like(self.data))
        Tape.from_root(self).replay_backward()

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return _binary_elementwise(self, other, "add")

    def __radd__(self, other):
        return _binary_elementwise(_as_tensor(other), self, "add")

    def __sub__(self, other):
        return _binary_elementwise(self, other, "sub")

    def __rsub__(self, other):
        return _binary_elementwise(_as_tensor(other), self, "sub")

    def __mul__(self, other):
        return _binary_elementwise(self, other, "mul")

    def __rmul__(self, other):
        return _binary_elementwise(_as_tensor(other), self, "mul")

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key) -> "Tensor":
        return _slice(self, key)

    # -- elementwise methods ------------------------------------------------

    def tanh(self) -> "Tensor":
        return tanh(self)

    def softplus(self) -> "Tensor":
        return softplus(self)

    def abs(self) -> "Tensor":
        return absolute(self)

    def reciprocal(self) -> "Tensor":
        return reciprocal(self)

    def sum(self) -> "Tensor":
        return tensor_sum(self)

    def reshape(self, *shape) -> "Tensor":
        return reshape(self, shape if len(shape) > 1 else shape[0])


class Tape:
    """Ordered record of the graph nodes reachable from a loss root.

    Nodes are sorted by creation order, so ``replay_backward`` visits backward
    closures in the exact reverse of forward execution order, which makes two
    backward passes over identical forwards bitwise identical.

    Backward consumes the graph, as PyTorch's default ``retain_graph=False``
    does: each node drops its closure and parents once its closure has run.
    Every closure holds its own output, so without the release a step's graph
    is a reference cycle that lives until the cyclic collector runs. A
    consumed graph cannot be replayed; build it again from the inputs.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def from_root(cls, root: Tensor) -> "Tape":
        nodes: list[Tensor] = []
        seen = {id(root)}
        stack = [root]
        while stack:
            t = stack.pop()
            if t._backward is not None:
                nodes.append(t)
            for p in t._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        nodes.sort(key=lambda t: t._seq, reverse=True)
        return cls(nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def replay_backward(self) -> None:
        for node in self.nodes:
            node._backward()
            node._backward = None
            node._parents = ()


# -- construction helpers ----------------------------------------------------


def _as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    arr = np.asarray(value, dtype=np.float64)
    return Tensor(arr)


def _records(parents: Sequence[Tensor]) -> bool:
    """Whether an op on these operands records a graph node."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[], None]) -> Tensor:
    """A node that records parents and backward closure only when it requires grad."""
    out = Tensor(data, requires_grad=_records(parents))
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    return out


# -- binary elementwise ops ---------------------------------------------------


def _binary_elementwise(a, b, op: str) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.shape != b.shape and a.size != 1 and b.size != 1 and not _over_windows(a, b):
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ and neither is a scalar")
    if op == "add":
        data = a.data + b.data
    elif op == "sub":
        data = a.data - b.data
    else:
        data = a.data * b.data

    def _bw():
        g = out.grad
        if op == "add":
            ga, gb = g, g
        elif op == "sub":
            ga, gb = g, -g
        else:
            ga, gb = g * b.data, g * a.data
        _accumulate_broadcast(a, ga)
        _accumulate_broadcast(b, gb)

    out = _make(data, (a, b), _bw)
    return out


def _over_windows(a: Tensor, b: Tensor) -> bool:
    """A (B, r, n) operand against an (r, n) one."""
    big, small = (a, b) if a.data.ndim == 3 else (b, a)
    return big.data.ndim == 3 and big.shape[1:] == small.shape


def _accumulate_windows(t: Tensor, fn: Callable[..., np.ndarray], *arrays: np.ndarray) -> None:
    """Add ``fn(*arrays)`` into the grad of t, an operand the windows share.

    With a window axis, (B, rows, width) arrays, fn gets window i's 2-D
    slices, and window B-1's gradient goes in first, window 0's last (the
    module docstring says why). Summing them with ``np.sum(axis=0)`` would
    add in another order; stacking B weight-sized gradients would cost
    memory.
    """
    if not t.requires_grad:
        return
    if arrays[0].ndim < 3:
        t.accumulate_grad(fn(*arrays))
        return
    for i in range(len(arrays[0]) - 1, -1, -1):
        t.accumulate_grad(fn(*(a[i] for a in arrays)))


def _accumulate_broadcast(t: Tensor, g: np.ndarray) -> None:
    """Add g into t's grad, undoing a broadcast over a window axis or of a scalar."""
    if not t.requires_grad:
        return
    if g.shape == t.shape:
        t.accumulate_grad(g)
    elif g.ndim == 3 and g.shape[1:] == t.shape:
        _accumulate_windows(t, lambda gw: gw, g)
    else:
        t.accumulate_grad(np.asarray(g.sum(), dtype=np.float64).reshape(t.shape))


# -- unary elementwise ops ----------------------------------------------------


def neg(x: Tensor) -> Tensor:
    out = _make(-x.data, (x,), lambda: x.accumulate_grad(-out.grad))
    return out


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = _make(y, (x,), lambda: x.accumulate_grad(out.grad * (1.0 - y * y)))
    return out


def _softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x) computed without overflow for large |x|."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus(x: Tensor) -> Tensor:
    y = _softplus(x.data)
    out = _make(y, (x,), lambda: x.accumulate_grad(out.grad * (1.0 / (1.0 + np.exp(-x.data)))))
    return out


def absolute(x: Tensor) -> Tensor:
    out = _make(np.abs(x.data), (x,), lambda: x.accumulate_grad(out.grad * np.sign(x.data)))
    return out


def reciprocal(x: Tensor) -> Tensor:
    y = 1.0 / x.data
    out = _make(y, (x,), lambda: x.accumulate_grad(out.grad * (-y * y)))
    return out


# -- matmul and structural ops ------------------------------------------------


def _require_2d(x: Tensor, op: str, windows: bool = False) -> None:
    """x is 2-D, or (B, rows, width) in an op that takes a window axis."""
    if x.data.ndim == 2 or (windows and x.data.ndim == 3):
        return
    raise ShapeError(f"{op} expects 2-D tensors, got shape {x.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b)
    _require_2d(a, "matmul", windows=True)
    _require_2d(b, "matmul")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ for {a.shape} @ {b.shape}")

    def _bw():
        g = out.grad
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T)
        _accumulate_windows(b, lambda aw, gw: aw.T @ gw, a.data, g)

    out = _make(a.data @ b.data, (a, b), _bw)
    return out


def transpose(x: Tensor) -> Tensor:
    _require_2d(x, "transpose")
    out = _make(x.data.T, (x,), lambda: x.accumulate_grad(out.grad.T))
    return out


def reshape(x: Tensor, shape) -> Tensor:
    if isinstance(shape, int):
        shape = (shape,)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    out = _make(x.data.reshape(shape), (x,), lambda: x.accumulate_grad(out.grad.reshape(x.shape)))
    return out


def _normalize_slice(s, dim: int, axis: str) -> tuple[int, int]:
    if not isinstance(s, slice) or s.step not in (None, 1):
        raise ShapeError(f"slice on {axis} must be a contiguous slice without step")
    start = 0 if s.start is None else int(s.start)
    stop = dim if s.stop is None else int(s.stop)
    if start < 0 or stop > dim or start > stop:
        raise ShapeError(f"slice [{start}:{stop}] out of range for {axis} of size {dim}")
    return start, stop


def _slice(x: Tensor, key) -> Tensor:
    _require_2d(x, "slice")
    if not isinstance(key, tuple):
        key = (key, slice(None))
    if len(key) != 2:
        raise ShapeError("slice key must address rows and columns")
    r0, r1 = _normalize_slice(key[0], x.shape[0], "rows")
    c0, c1 = _normalize_slice(key[1], x.shape[1], "cols")

    def _bw():
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[r0:r1, c0:c1] += out.grad

    out = _make(x.data[r0:r1, c0:c1].copy(), (x,), _bw)
    return out


def _common_windows(parts: list[Tensor]) -> list[np.ndarray]:
    """The parts' arrays, 2-D ones repeated over the others' window axis."""
    windows = {p.shape[0] for p in parts if p.data.ndim == 3}
    if len(windows) > 1:
        raise ShapeError(f"concat: window axes differ: {sorted(windows)}")
    if not windows:
        return [p.data for p in parts]
    (b,) = windows
    return [p.data if p.data.ndim == 3 else p.data[None].repeat(b, axis=0) for p in parts]


def concat_rows(parts: Iterable[Tensor]) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat_rows needs at least one tensor")
    for p in parts:
        _require_2d(p, "concat_rows", windows=True)
    widths = {p.shape[-1] for p in parts}
    if len(widths) != 1:
        raise ShapeError(f"concat_rows: column counts differ: {sorted(widths)}")

    def _bw():
        off = 0
        for p in parts:
            r = p.shape[-2]
            _accumulate_broadcast(p, out.grad[..., off : off + r, :])
            off += r

    out = _make(np.concatenate(_common_windows(parts), axis=-2), parts, _bw)
    return out


def concat_cols(parts: Iterable[Tensor]) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat_cols needs at least one tensor")
    for p in parts:
        _require_2d(p, "concat_cols", windows=True)
    heights = {p.shape[-2] for p in parts}
    if len(heights) != 1:
        raise ShapeError(f"concat_cols: row counts differ: {sorted(heights)}")

    def _bw():
        off = 0
        for p in parts:
            c = p.shape[-1]
            _accumulate_broadcast(p, out.grad[..., off : off + c])
            off += c

    out = _make(np.concatenate(_common_windows(parts), axis=-1), parts, _bw)
    return out


def mean_rows(x: Tensor) -> Tensor:
    """Average over rows: (m, n) -> (1, n)."""
    _require_2d(x, "mean_rows", windows=True)
    m = x.shape[-2]
    if m == 0:
        raise ShapeError("mean_rows over zero rows")
    y = x.data.mean(axis=-2, keepdims=True)
    out = _make(y, (x,), lambda: x.accumulate_grad(np.broadcast_to(out.grad / m, x.shape)))
    return out


def tensor_sum(x: Tensor) -> Tensor:
    """Sum of every entry; a (B, rows, width) tensor gives one sum per window, (B,)."""
    per_window = x.data.ndim == 3
    y = np.asarray(x.data.sum(axis=(-2, -1) if per_window else None))

    def _bw():
        g = out.grad[:, None, None] if per_window else out.grad
        x.accumulate_grad(np.broadcast_to(g, x.shape))

    out = _make(y, (x,), _bw)
    return out


def sum_in_order(x: Tensor) -> Tensor:
    """Sum of a vector's entries added first to last, as a chain of ``+`` adds them.

    ``np.sum`` adds in pairwise blocks, which rounds differently; the running
    sum of ``np.cumsum`` adds one entry at a time. A 0-d x is its own sum.
    """
    y = np.asarray(np.cumsum(x.data.reshape(-1))[-1])
    out = _make(y, (x,), lambda: x.accumulate_grad(np.broadcast_to(out.grad, x.shape)))
    return out


def add_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Add a length-n vector to every row of an (r, n) matrix."""
    _require_2d(m, "add_rowvec")
    v = _as_tensor(v)
    if v.data.ndim != 1 or v.shape[0] != m.shape[1]:
        raise ShapeError(f"add_rowvec: vector {v.shape} does not match row width of {m.shape}")

    def _bw():
        m.accumulate_grad(out.grad)
        v.accumulate_grad(out.grad.sum(axis=0))

    out = _make(m.data + v.data[None, :], (m, v), _bw)
    return out


def mul_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Scale every row of an (r, n) matrix elementwise by a length-n vector."""
    _require_2d(m, "mul_rowvec")
    v = _as_tensor(v)
    if v.data.ndim != 1 or v.shape[0] != m.shape[1]:
        raise ShapeError(f"mul_rowvec: vector {v.shape} does not match row width of {m.shape}")

    def _bw():
        m.accumulate_grad(out.grad * v.data[None, :])
        v.accumulate_grad((out.grad * m.data).sum(axis=0))

    out = _make(m.data * v.data[None, :], (m, v), _bw)
    return out


def repeat_rows(v: Tensor, n: int) -> Tensor:
    """Tile a (1, c) row vector into an (n, c) matrix."""
    _require_2d(v, "repeat_rows", windows=True)
    if v.shape[-2] != 1:
        raise ShapeError(f"repeat_rows expects a single row, got {v.shape}")
    if n < 1:
        raise ShapeError("repeat_rows needs n >= 1")
    y = np.repeat(v.data, n, axis=-2)
    out = _make(y, (v,), lambda: v.accumulate_grad(out.grad.sum(axis=-2, keepdims=True)))
    return out


def _softmax_last(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, shifted by the maximum for stability."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_last_grad(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Input gradient of ``_softmax_last`` with output ``s`` and output gradient ``g``."""
    return s * (g - (g * s).sum(axis=-1, keepdims=True))


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor; each output row sums to one."""
    _require_2d(x, "softmax_rows")
    s = _softmax_last(x.data)
    out = _make(s, (x,), lambda: x.accumulate_grad(_softmax_last_grad(out.grad, s)))
    return out


def _normalize_rows(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(xhat, 1/std): each row shifted to zero mean and scaled to unit variance."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    return (x - mu) * inv, inv


def _normalize_rows_grad(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Input gradient of ``_normalize_rows`` given the gradient ``g`` on xhat."""
    gm = g.mean(axis=-1, keepdims=True)
    gx = (g * xhat).mean(axis=-1, keepdims=True)
    return inv * (g - gm - xhat * gx)


def layernorm_rows(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row to zero mean / unit variance (no affine part)."""
    _require_2d(x, "layernorm_rows")
    xhat, inv = _normalize_rows(x.data, eps)
    out = _make(xhat, (x,), lambda: x.accumulate_grad(_normalize_rows_grad(out.grad, xhat, inv)))
    return out


# -- fused layer ops ----------------------------------------------------------------


def _require_rowvec(v: Tensor, n: int, op: str) -> None:
    if v.data.ndim != 1 or v.shape[0] != n:
        raise ShapeError(f"{op}: expected a vector of length {n}, got shape {v.shape}")


def linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ W.T + b`` of (r, k) rows by an (m, k) weight and a length-m bias."""
    x = _as_tensor(x)
    _require_2d(x, "linear", windows=True)
    _require_2d(W, "linear")
    if x.shape[-1] != W.shape[1]:
        raise ShapeError(f"linear: rows of width {x.shape[-1]} for a weight of shape {W.shape}")
    _require_rowvec(b, W.shape[0], "linear bias")

    def _bw():
        g = out.grad
        if x.requires_grad:
            x.accumulate_grad(g @ W.data)
        _accumulate_windows(W, lambda gw, xw: gw.T @ xw, g, x.data)
        _accumulate_windows(b, lambda gw: gw.sum(axis=0), g)

    y = x.data @ W.data.T
    y += b.data
    out = _make(y, (x, W, b), _bw)
    return out


def linear_split(u: Tensor, h: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """``linear(concat_cols([u, repeat_rows(h, S)]), W, b)``, h's term once.

    u is (S, d_u) rows and h one (1, d_h) row; W (m, d_u + d_h) splits into
    the columns that multiply u and those that multiply h. The bias row
    ``h @ W_h.T + b`` is computed once and added to every row of
    ``u @ W_u.T``, so h's product is not repeated S times. Latents
    (B, S, d_u) take rows h (B, 1, d_h), one per window. Backward takes
    h's gradient from the row sum of the output gradient, and W's from the
    ``[u | h]`` rows, each window's product the one ``linear`` computes.
    """
    u = _as_tensor(u)
    _require_2d(u, "linear_split", windows=True)
    _require_2d(h, "linear_split", windows=True)
    _require_2d(W, "linear_split")
    if h.shape[-2] != 1:
        raise ShapeError(f"linear_split: h must be a single row, got {h.shape}")
    if h.shape[:-2] != u.shape[:-2]:
        raise ShapeError(f"linear_split: window axes differ for u {u.shape} and h {h.shape}")
    d_u = u.shape[-1]
    if d_u + h.shape[-1] != W.shape[1]:
        raise ShapeError(
            f"linear_split: widths {d_u} + {h.shape[-1]} for a weight of shape {W.shape}"
        )
    _require_rowvec(b, W.shape[0], "linear_split bias")
    W_u, W_h = W.data[:, :d_u], W.data[:, d_u:]

    def _bw():
        g = out.grad
        g_row = g.sum(axis=-2, keepdims=True)  # gradient on the bias row
        if u.requires_grad:
            u.accumulate_grad(g @ W_u)
        if h.requires_grad:
            h.accumulate_grad(g_row @ W_h)
        if W.requires_grad:
            # one (m, S) @ (S, d_u + d_h) product over the [u | h] rows, as in
            # linear: cheaper at training's S than an outer product for h's
            # columns plus a concatenation of the two blocks
            h_rows = np.broadcast_to(h.data, (*u.shape[:-1], h.shape[-1]))
            x = np.concatenate([u.data, h_rows], axis=-1)
            _accumulate_windows(W, lambda gw, xw: gw.T @ xw, g, x)
        _accumulate_windows(b, lambda rw: rw[0], g_row)

    row = h.data @ W_h.T
    row += b.data
    y = u.data @ W_u.T
    y += row
    out = _make(y, (u, h, W, b), _bw)
    return out


def layernorm_affine(x: Tensor, g: Tensor, b: Tensor, eps: float = 1e-5) -> Tensor:
    """``layernorm_rows(x)`` scaled by the length-n vector g and shifted by b."""
    _require_2d(x, "layernorm_affine", windows=True)
    _require_rowvec(g, x.shape[-1], "layernorm_affine gain")
    _require_rowvec(b, x.shape[-1], "layernorm_affine bias")
    xhat, inv = _normalize_rows(x.data, eps)

    def _bw():
        gy = out.grad
        if x.requires_grad:
            x.accumulate_grad(_normalize_rows_grad(gy * g.data[None, :], xhat, inv))
        _accumulate_windows(g, lambda gw, xw: (gw * xw).sum(axis=0), gy, xhat)
        _accumulate_windows(b, lambda gw: gw.sum(axis=0), gy)

    y = xhat * g.data
    y += b.data
    out = _make(y, (x, g, b), _bw)
    return out


def causal_attention(
    x: Tensor, Wq: Tensor, Wk: Tensor, Wv: Tensor, Wo: Tensor, n_heads: int
) -> Tensor:
    """Multi-head causal self-attention of (n, d) rows, as one graph node.

    Q, K, V = x @ Wq, x @ Wk, x @ Wv, each (d, d); head h owns columns
    [h*d_head, (h+1)*d_head). Row i of head h is softmax over j <= i of
    q_i . k_j / sqrt(d_head), applied to the rows of v; later positions get a
    -1e9 additive mask. The heads' outputs, concatenated along columns, are
    mapped by Wo. All heads run together on (heads, n, d_head) arrays.
    """
    _require_2d(x, "causal_attention", windows=True)
    *windows, n, d = x.shape
    if n_heads < 1 or d % n_heads != 0:
        raise ShapeError(f"causal_attention: width {d} does not split into {n_heads} heads")
    for W in (Wq, Wk, Wv, Wo):
        if W.shape != (d, d):
            raise ShapeError(f"causal_attention: weight {W.shape} for rows of width {d}")
    d_head = d // n_heads
    scale = 1.0 / math.sqrt(d_head)

    def split(m):  # (..., n, d) -> contiguous (..., heads, n, d_head)
        return np.ascontiguousarray(m.reshape(*windows, n, n_heads, d_head).swapaxes(-3, -2))

    def merge(m):  # (..., heads, n, d_head) -> (..., n, d)
        return m.swapaxes(-3, -2).reshape(*windows, n, d)

    q = split(x.data @ Wq.data)
    k = split(x.data @ Wk.data)
    v = split(x.data @ Wv.data)
    mask = np.triu(np.full((n, n), -1e9), k=1)
    p = _softmax_last((q @ k.swapaxes(-1, -2)) * scale + mask)
    heads = merge(p @ v)

    def _bw():
        g = out.grad
        _accumulate_windows(Wo, lambda hw, gw: hw.T @ gw, heads, g)
        g_heads = split(g @ Wo.data.T)
        g_scores = _softmax_last_grad(g_heads @ v.swapaxes(-1, -2), p) * scale
        grads = (
            (Wq, merge(g_scores @ k)),
            (Wk, merge(g_scores.swapaxes(-1, -2) @ q)),
            (Wv, merge(p.swapaxes(-1, -2) @ g_heads)),
        )
        if x.requires_grad:
            x.accumulate_grad(sum(gm @ W.data.T for W, gm in grads))
        for W, gm in grads:
            _accumulate_windows(W, lambda xw, gw: xw.T @ gw, x.data, gm)

    out = _make(heads @ Wo.data, (x, Wq, Wk, Wv, Wo), _bw)
    return out


def planar_reparameterize(a: np.ndarray, w: np.ndarray, margin: float, norm_eps: float):
    """Invertibility reparameterization of (1, d) rows a, w: (wa, m, r, coef, w_hat).

    wa = w.a, m = softplus(wa) + margin - 1, r = 1 / (|a|^2 + norm_eps),
    coef = (m - wa) r and w_hat = w + coef a, so that w_hat.a > -1. The
    scalars come back as (1, 1) arrays; (B, 1, d) rows give one per window.
    """
    wa = w @ a.swapaxes(-1, -2)  # (..., 1, 1)
    m = _softplus(wa) + (margin - 1.0)
    r = 1.0 / ((a * a).sum(axis=-1, keepdims=True) + norm_eps)
    coef = (m - wa) * r
    return wa, m, r, coef, w + coef * a


def planar_step(u: Tensor, theta: Tensor, margin: float, norm_eps: float) -> Tensor:
    """One invertible planar map on each latent row of u (S, d), as one graph node.

    ``theta`` is the packed (1, 2d + 1) row [a | w | b]; latents (B, S, d)
    take (B, 1, 2d + 1) rows, one per window. The map is
    u' = u + tanh(u . a + b) w_hat, with w_hat from ``planar_reparameterize``,
    so w_hat.a > -1 and the map is invertible.
    """
    _require_2d(u, "planar_step", windows=True)
    d = u.shape[-1]
    if theta.shape != (*u.shape[:-2], 1, 2 * d + 1):
        raise ShapeError(f"planar_step: parameter row {theta.shape} for latents {u.shape}")
    # contiguous copies, as the unfused slices were, so every product sees
    # the same operands as the reference chain
    a = theta.data[..., 0:d].copy()
    w = theta.data[..., d : 2 * d].copy()
    b = theta.data[..., 2 * d :].copy()
    wa, m, r, coef, w_hat = planar_reparameterize(a, w, margin, norm_eps)
    gate = np.tanh(u.data @ a.swapaxes(-1, -2) + b)  # (..., S, 1)

    def _bw():
        g = out.grad
        g_pre = (g @ w_hat.swapaxes(-1, -2)) * (1.0 - gate * gate)  # (..., S, 1)
        if u.requires_grad:
            u.accumulate_grad(g + g_pre @ a)
        if not theta.requires_grad:
            return
        g_w_hat = gate.swapaxes(-1, -2) @ g  # (..., 1, d)
        g_coef = (g_w_hat * a).sum(axis=(-2, -1), keepdims=True)
        g_num = g_coef * r  # gradient on m - w.a
        g_wa = g_num / (1.0 + np.exp(-wa)) - g_num  # through softplus(w.a) and -w.a
        g_norm2 = -g_coef * (m - wa) * r * r
        g_a = g_pre.swapaxes(-1, -2) @ u.data + coef * g_w_hat + (2.0 * g_norm2) * a + g_wa * w
        g_w = g_w_hat + g_wa * a
        g_b = g_pre.sum(axis=(-2, -1), keepdims=True)
        theta.accumulate_grad(np.concatenate([g_a, g_w, g_b], axis=-1))

    out = _make(u.data + gate @ w_hat, (u, theta), _bw)
    return out


# -- scoring ops -----------------------------------------------------------------


def _rank_coefficients(s: int) -> np.ndarray:
    """Weight 2k - s + 1 of the k-th smallest of s samples (k = 0..s-1)."""
    return 2.0 * np.arange(s) - s + 1.0


def pairwise_spread(sorted_samples: np.ndarray, axis: int = 0) -> np.ndarray:
    """sum_{i<j} |x_i - x_j| along an axis of an array sorted ascending along it.

    Uses sum_k (2k - S + 1) x_(k), which costs one sort instead of S(S-1)/2
    differences (the scoringRules estimator, Jordan, Kruger & Lerch 2019).
    ``axis`` is 0, the samples of an (S,) or (S, H, C) ensemble, or -2, the
    rows of an (S, n) ensemble or a (B, S, n) stack of them. Along -2 the
    product is one BLAS call per (S, n) block, so each window of a stack gets
    the bits of its own call; a tensordot over the whole stack would not.
    """
    coeffs = _rank_coefficients(sorted_samples.shape[axis])
    if axis == -2:
        return coeffs @ sorted_samples
    return np.tensordot(coeffs, sorted_samples, axes=(0, 0))


def energy_score(samples: Tensor, target: Tensor) -> Tensor:
    """Fair energy score of an (S, n) ensemble against a (1, n) target row.

    mean_s|x_s - y| - (1/(S(S-1))) sum_{i<j} |x_i - x_j|, averaged over the
    n columns, as one graph node. Each column is sorted once; the spread is
    ``pairwise_spread`` of the sorted rows, and its gradient scatters the rank
    coefficients 2k - S + 1 back to the unsorted rows. A stack of ensembles
    (B, S, n) against (B, 1, n) targets gives the B windows' scores, (B,).

    Ties: a stable sort gives tied samples distinct ranks in row order, so
    their spread subgradients differ, where the pairwise form gives each the
    same value with sign(0) = 0. The sum over a tie group is the same in both
    conventions, and ties have measure zero for continuous samples.
    """
    _require_2d(samples, "energy_score", windows=True)
    *windows, s, n = samples.shape
    if s < 2:
        raise ShapeError("energy_score needs at least two samples")
    if target.shape != (*windows, 1, n):
        raise ShapeError(f"target shape {target.shape} does not match {(*windows, 1, n)}")
    diff = samples.data - target.data
    order = np.argsort(samples.data, axis=-2, kind="stable")
    spread = pairwise_spread(np.take_along_axis(samples.data, order, axis=-2), axis=-2)
    value = np.abs(diff).sum(axis=(-2, -1)) * (1.0 / (s * n)) - spread.sum(axis=-1) * (
        1.0 / (s * (s - 1) * n)
    )

    def _bw():
        g = out.grad[..., None, None]
        sign = np.sign(diff) * (g / (s * n))
        coeff = np.empty_like(samples.data)
        np.put_along_axis(coeff, order, _rank_coefficients(s)[:, None], axis=-2)
        samples.accumulate_grad(sign - coeff * (g / (s * (s - 1) * n)))
        target.accumulate_grad(-sign.sum(axis=-2, keepdims=True))

    out = _make(np.asarray(value), (samples, target), _bw)
    return out


# -- utilities ----------------------------------------------------------------


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.zero_grad()


def grad_check(
    fn: Callable[..., Tensor],
    points: Tensor | Sequence[Tensor],
    epsilon: float = 1e-6,
) -> float:
    """Compare backward() gradients of a scalar function to central differences.

    ``fn`` receives the point tensors and must rebuild its graph on each call.
    Returns the largest error over every coordinate of every point. A
    coordinate whose |analytic - numeric| is within the central difference's
    rounding noise, atol = 1e-14 * max(1, |fn(points)|) / epsilon (1e-8 at
    the default epsilon for |fn| <= 1), counts as an exact match (error 0).
    Any other coordinate contributes its relative error
    |analytic - numeric| / (|analytic| + |numeric|). Without the absolute
    tolerance, a coordinate whose true gradient is exactly zero would read as
    relative error 1 from rounding noise alone.
    """
    if isinstance(points, Tensor):
        points = [points]
    points = list(points)
    zero_grads(points)
    loss = fn(*points)
    if not isinstance(loss, Tensor) or loss.size != 1:
        raise ShapeError("grad_check function must return a scalar Tensor")
    if not np.isfinite(loss.data).all():
        raise ValueError("grad_check: non-finite function value at the base point")
    atol = 1e-14 * max(1.0, abs(loss.item())) / epsilon
    loss.backward()
    analytic = [
        np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in points
    ]

    worst = 0.0
    for p, ga in zip(points, analytic):
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            hi = fn(*points).item()
            flat[i] = orig - epsilon
            lo = fn(*points).item()
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise ValueError("grad_check: non-finite function value during probing")
            numeric = (hi - lo) / (2.0 * epsilon)
            a = ga.reshape(-1)[i]
            diff = abs(a - numeric)
            if diff > atol:
                worst = max(worst, diff / (abs(a) + abs(numeric)))
    return worst
