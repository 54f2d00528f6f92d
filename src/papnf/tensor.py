"""Dense float64 tensors with reverse-mode automatic differentiation.

Every differentiable op records a backward closure on its output; calling
``backward`` on a scalar loss replays the closures of the subgraph that can
reach the loss, in exact reverse execution order. Broadcasting in binary ops
is restricted to scalar-vs-tensor so shape bugs surface as errors instead of
silently stretched arrays.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "Tape",
    "add_rowvec",
    "mul_rowvec",
    "repeat_rows",
    "mean_rows",
    "concat_rows",
    "concat_cols",
    "matmul",
    "softmax_rows",
    "layernorm_rows",
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
        """Add ``g`` into this tensor's grad buffer (allocating it lazily)."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
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


def _make(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[], None]) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    return out


# -- binary elementwise ops ---------------------------------------------------


def _binary_elementwise(a, b, op: str) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ and neither is a scalar")
    if op == "add":
        data = a.data + b.data
    elif op == "sub":
        data = a.data - b.data
    else:
        data = a.data * b.data
    out = _make(data, (a, b), lambda: None)
    if not out.requires_grad:
        return out

    def _bw():
        g = out.grad
        if op == "add":
            ga, gb = g, g
        elif op == "sub":
            ga, gb = g, -g
        else:
            ga, gb = g * b.data, g * a.data
        a.accumulate_grad(_reduce_to(ga, a.shape))
        b.accumulate_grad(_reduce_to(gb, b.shape))

    out._backward = _bw
    return out


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Collapse a broadcast gradient back onto a scalar operand's shape."""
    if g.shape == shape:
        return g
    return np.asarray(g.sum(), dtype=np.float64).reshape(shape)


# -- unary elementwise ops ----------------------------------------------------


def neg(x: Tensor) -> Tensor:
    out = _make(-x.data, (x,), lambda: None)
    if out.requires_grad:
        out._backward = lambda: x.accumulate_grad(-out.grad)
    return out


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = _make(y, (x,), lambda: None)
    if out.requires_grad:
        out._backward = lambda: x.accumulate_grad(out.grad * (1.0 - y * y))
    return out


def softplus(x: Tensor) -> Tensor:
    # log(1 + e^x) computed without overflow for large |x|.
    y = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))
    out = _make(y, (x,), lambda: None)
    if out.requires_grad:
        sig = 1.0 / (1.0 + np.exp(-x.data))
        out._backward = lambda: x.accumulate_grad(out.grad * sig)
    return out


def absolute(x: Tensor) -> Tensor:
    out = _make(np.abs(x.data), (x,), lambda: None)
    if out.requires_grad:
        sign = np.sign(x.data)
        out._backward = lambda: x.accumulate_grad(out.grad * sign)
    return out


def reciprocal(x: Tensor) -> Tensor:
    y = 1.0 / x.data
    out = _make(y, (x,), lambda: None)
    if out.requires_grad:
        out._backward = lambda: x.accumulate_grad(out.grad * (-y * y))
    return out


# -- matmul and structural ops ------------------------------------------------


def _require_2d(x: Tensor, op: str) -> None:
    if x.data.ndim != 2:
        raise ShapeError(f"{op} expects 2-D tensors, got shape {x.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b)
    _require_2d(a, "matmul")
    _require_2d(b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ for {a.shape} @ {b.shape}")
    out = _make(a.data @ b.data, (a, b), lambda: None)
    if not out.requires_grad:
        return out

    def _bw():
        g = out.grad
        a.accumulate_grad(g @ b.data.T)
        b.accumulate_grad(a.data.T @ g)

    out._backward = _bw
    return out


def transpose(x: Tensor) -> Tensor:
    _require_2d(x, "transpose")
    out = _make(x.data.T, (x,), lambda: None)
    if out.requires_grad:
        out._backward = lambda: x.accumulate_grad(out.grad.T)
    return out


def reshape(x: Tensor, shape) -> Tensor:
    if isinstance(shape, int):
        shape = (shape,)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    out = _make(x.data.reshape(shape), (x,), lambda: None)
    if out.requires_grad:
        out._backward = lambda: x.accumulate_grad(out.grad.reshape(x.shape))
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
    out = _make(x.data[r0:r1, c0:c1].copy(), (x,), lambda: None)
    if not out.requires_grad:
        return out

    def _bw():
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[r0:r1, c0:c1] += out.grad

    out._backward = _bw
    return out


def concat_rows(parts: Iterable[Tensor]) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat_rows needs at least one tensor")
    for p in parts:
        _require_2d(p, "concat_rows")
    widths = {p.shape[1] for p in parts}
    if len(widths) != 1:
        raise ShapeError(f"concat_rows: column counts differ: {sorted(widths)}")
    out = _make(np.concatenate([p.data for p in parts], axis=0), parts, lambda: None)
    if not out.requires_grad:
        return out

    def _bw():
        off = 0
        for p in parts:
            r = p.shape[0]
            p.accumulate_grad(out.grad[off : off + r])
            off += r

    out._backward = _bw
    return out


def concat_cols(parts: Iterable[Tensor]) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat_cols needs at least one tensor")
    for p in parts:
        _require_2d(p, "concat_cols")
    heights = {p.shape[0] for p in parts}
    if len(heights) != 1:
        raise ShapeError(f"concat_cols: row counts differ: {sorted(heights)}")
    out = _make(np.concatenate([p.data for p in parts], axis=1), parts, lambda: None)
    if not out.requires_grad:
        return out

    def _bw():
        off = 0
        for p in parts:
            c = p.shape[1]
            p.accumulate_grad(out.grad[:, off : off + c])
            off += c

    out._backward = _bw
    return out


def mean_rows(x: Tensor) -> Tensor:
    """Average over rows: (m, n) -> (1, n)."""
    _require_2d(x, "mean_rows")
    m = x.shape[0]
    if m == 0:
        raise ShapeError("mean_rows over zero rows")
    out = _make(x.data.mean(axis=0, keepdims=True), (x,), lambda: None)
    if out.requires_grad:
        out._backward = lambda: x.accumulate_grad(np.broadcast_to(out.grad / m, x.shape))
    return out


def tensor_sum(x: Tensor) -> Tensor:
    out = _make(np.asarray(x.data.sum()), (x,), lambda: None)
    if out.requires_grad:
        out._backward = lambda: x.accumulate_grad(np.broadcast_to(out.grad, x.shape))
    return out


def add_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Add a length-n vector to every row of an (r, n) matrix."""
    _require_2d(m, "add_rowvec")
    v = _as_tensor(v)
    if v.data.ndim != 1 or v.shape[0] != m.shape[1]:
        raise ShapeError(f"add_rowvec: vector {v.shape} does not match row width of {m.shape}")
    out = _make(m.data + v.data[None, :], (m, v), lambda: None)
    if not out.requires_grad:
        return out

    def _bw():
        m.accumulate_grad(out.grad)
        v.accumulate_grad(out.grad.sum(axis=0))

    out._backward = _bw
    return out


def mul_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Scale every row of an (r, n) matrix elementwise by a length-n vector."""
    _require_2d(m, "mul_rowvec")
    v = _as_tensor(v)
    if v.data.ndim != 1 or v.shape[0] != m.shape[1]:
        raise ShapeError(f"mul_rowvec: vector {v.shape} does not match row width of {m.shape}")
    out = _make(m.data * v.data[None, :], (m, v), lambda: None)
    if not out.requires_grad:
        return out

    def _bw():
        m.accumulate_grad(out.grad * v.data[None, :])
        v.accumulate_grad((out.grad * m.data).sum(axis=0))

    out._backward = _bw
    return out


def repeat_rows(v: Tensor, n: int) -> Tensor:
    """Tile a (1, c) row vector into an (n, c) matrix."""
    _require_2d(v, "repeat_rows")
    if v.shape[0] != 1:
        raise ShapeError(f"repeat_rows expects a single row, got {v.shape}")
    if n < 1:
        raise ShapeError("repeat_rows needs n >= 1")
    out = _make(np.repeat(v.data, n, axis=0), (v,), lambda: None)
    if out.requires_grad:
        out._backward = lambda: v.accumulate_grad(out.grad.sum(axis=0, keepdims=True))
    return out


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor; each output row sums to one."""
    _require_2d(x, "softmax_rows")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)
    out = _make(s, (x,), lambda: None)
    if not out.requires_grad:
        return out

    def _bw():
        g = out.grad
        inner = (g * s).sum(axis=1, keepdims=True)
        x.accumulate_grad(s * (g - inner))

    out._backward = _bw
    return out


def layernorm_rows(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row to zero mean / unit variance (no affine part)."""
    _require_2d(x, "layernorm_rows")
    mu = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = _make(xhat, (x,), lambda: None)
    if not out.requires_grad:
        return out

    def _bw():
        g = out.grad
        gm = g.mean(axis=1, keepdims=True)
        gx = (g * xhat).mean(axis=1, keepdims=True)
        x.accumulate_grad(inv * (g - gm - xhat * gx))

    out._backward = _bw
    return out


# -- scoring ops -----------------------------------------------------------------


def _rank_coefficients(s: int) -> np.ndarray:
    """Weight 2k - s + 1 of the k-th smallest of s samples (k = 0..s-1)."""
    return 2.0 * np.arange(s) - s + 1.0


def pairwise_spread(sorted_samples: np.ndarray) -> np.ndarray:
    """sum_{i<j} |x_i - x_j| along axis 0 of an ascending-sorted array.

    Uses sum_k (2k - S + 1) x_(k), which costs one sort instead of S(S-1)/2
    differences (the scoringRules estimator, Jordan, Kruger & Lerch 2019).
    """
    return np.tensordot(_rank_coefficients(sorted_samples.shape[0]), sorted_samples, axes=(0, 0))


def energy_score(samples: Tensor, target: Tensor) -> Tensor:
    """Fair energy score of an (S, n) ensemble against a (1, n) target row.

    mean_s|x_s - y| - (1/(S(S-1))) sum_{i<j} |x_i - x_j|, averaged over the
    n columns, as one graph node. Each column is sorted once; the spread is
    ``pairwise_spread`` of the sorted rows, and its gradient scatters the rank
    coefficients 2k - S + 1 back to the unsorted rows.

    Ties: a stable sort gives tied samples distinct ranks in row order, so
    their spread subgradients differ, where the pairwise form gives each the
    same value with sign(0) = 0. The sum over a tie group is the same in both
    conventions, and ties have measure zero for continuous samples.
    """
    s, n = samples.shape
    if s < 2:
        raise ShapeError("energy_score needs at least two samples")
    if target.shape != (1, n):
        raise ShapeError(f"target shape {target.shape} does not match (1, {n})")
    diff = samples.data - target.data
    order = np.argsort(samples.data, axis=0, kind="stable")
    spread = pairwise_spread(np.take_along_axis(samples.data, order, axis=0)).sum()
    value = np.abs(diff).sum() * (1.0 / (s * n)) - spread * (1.0 / (s * (s - 1) * n))
    out = _make(np.asarray(value), (samples, target), lambda: None)
    if not out.requires_grad:
        return out

    def _bw():
        g = out.grad
        sign = np.sign(diff) * (g / (s * n))
        coeff = np.empty_like(samples.data)
        np.put_along_axis(coeff, order, _rank_coefficients(s)[:, None], axis=0)
        samples.accumulate_grad(sign - coeff * (g / (s * (s - 1) * n)))
        target.accumulate_grad(-sign.sum(axis=0, keepdims=True))

    out._backward = _bw
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
    Returns the maximum relative error max |analytic - numeric| /
    (|analytic| + |numeric| + 1e-12) over every coordinate of every point.
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
            err = abs(a - numeric) / (abs(a) + abs(numeric) + 1e-12)
            worst = max(worst, err)
    return worst
