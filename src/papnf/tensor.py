"""Dense float64 tensors with reverse-mode automatic differentiation.

Every differentiable op records a backward closure on its output; calling
``backward`` on a scalar loss replays the closures of the subgraph that can
reach the loss, in exact reverse execution order. Broadcasting in binary ops
is restricted to scalar-vs-tensor so shape bugs surface as errors instead of
silently stretched arrays.

Per-node Python overhead, not arithmetic, dominates the model's small graphs,
so each of its layers runs as one fused op: one graph node, with a
hand-written backward that skips the gradient of any operand with
requires_grad=False (``matmul`` skips them too):

* ``linear``: ``x @ W.T + b``;
* ``transformer``: the whole pre-norm causal transformer, positions, layer
  norms, attention and tanh MLP of every block, and the final layer norm;
* ``planar_layer``: a planar-flow step whose packed ``[a | w | b]`` row a
  tanh MLP (``hypernet``) computes from a summary row, with the
  invertibility reparameterization folded in;
* ``mlp_split``: affine, tanh, affine of ``[u | h]`` rows that share one h,
  with h's product computed once as a bias row;
* ``energy_score``: the fair energy score of an ensemble.

They compose numpy kernels, one forward and one backward per sublayer.

Sampling and training run several windows per pass. The ops the model's
forward pass and its losses use accept a leading window axis, (B, rows,
width) arrays, recording a graph or not; a 2-D operand such as a weight or
the prefix broadcasts over it. Every product stays one BLAS call per window
(a batched ``(B, r, k) @ (k, n)``, never the windows stacked into the rows of
one 2-D GEMM), so each window's values are bitwise those of its own 2-D pass.

In backward, an operand that a node may share across windows takes its
gradient as rows for one reduction: a weight (the W of ``linear`` and
``mlp_split``, the right operand of ``matmul``, the matrices of
``transformer`` and ``planar_layer``) as the row blocks of
``left.T @ right``, and any other operand (a bias, a layer-norm gain, a 2-D
part that a concat repeats over the windows, a scalar, a leaf written
through a slice, the positions, which ``transformer`` sums over windows
itself) as gradient rows of its size, to be summed. During
``Tape.replay_backward`` an op only records a leaf's rows; after the last
node, each leaf takes one reduction over all its rows, concatenated in
creation order into one C-contiguous matrix: the product for a weight, the
row sum for the rest. A non-leaf operand, whose
own closure must see its whole gradient, and a closure run outside a replay
reduce at once. A batch's (B, r, m) node and B per-window graphs built in
batch order and replayed in one backward hand the reduction the same rows,
for a leaf that each window's graph hands to one such node once, as it is
(a leaf reached through another op first, as in ``P * P + x``, is not
covered). Every model weight is such a leaf, so a batch's gradients are
bitwise those of one backward over its per-window graphs.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "LN_EPS",
    "ShapeError",
    "Tensor",
    "Layer",
    "Tape",
    "no_grad",
    "repeat_rows",
    "mean_rows",
    "sum_in_order",
    "concat_rows",
    "concat_cols",
    "matmul",
    "linear",
    "transformer",
    "hypernet",
    "planar_layer",
    "mlp_split",
    "PlanarParams",
    "planar_unpack",
    "pairwise_spread",
    "energy_score",
    "grad_check",
]


class ShapeError(ValueError):
    """Raised when operand shapes violate an op's contract."""


# Monotone creation counter; ordering backward replay by it reproduces the
# exact reverse of forward execution order.
_CREATION_COUNTER = itertools.count()

# The variance floor of every layer norm.
LN_EPS = 1e-5

# Whether ops record graph nodes; ``no_grad`` clears it for a block.
_grad_enabled = True

# The gradient rows that the running ``Tape.replay_backward`` defers, in
# replay order: (id, is a row sum) -> (leaf, left blocks of a weight's product
# or None, row blocks). None outside a replay.
_deferred: dict[tuple[int, bool], tuple[Tensor, list | None, list]] | None = None


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
        if self.requires_grad:
            self._add_grad(g if self.grad is not None else np.array(g, dtype=np.float64))

    def _add_grad(self, g: np.ndarray) -> None:
        """``accumulate_grad`` of a fresh float64 array that nothing else holds.

        The first such g becomes the grad buffer itself, uncopied (numpy
        returns 0-d results as scalars, which get an array). The ops'
        backward closures hand their products here; views of ``out.grad``
        and broadcasts go through ``accumulate_grad``.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            if g.shape != self.data.shape:
                raise ShapeError(f"gradient of shape {g.shape} for a tensor of shape {self.shape}")
            self.grad = g if isinstance(g, np.ndarray) else np.array(g)
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

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key) -> "Tensor":
        return _slice(self, key)

    def sum(self) -> "Tensor":
        return tensor_sum(self)


class Layer:
    """A model layer: every ``Tensor`` attribute of a layer is a weight.

    ``parameters`` names each ``f"{name}.{attr}"``, in the order the attributes
    were set, so checkpoint weight names follow the attribute names. Each is
    built by ``weight``, drawn in that order or, with no generator, left unset.
    """

    name: str

    def parameters(self) -> dict[str, Tensor]:
        return {f"{self.name}.{k}": v for k, v in vars(self).items() if isinstance(v, Tensor)}


def fan_in(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """A normal draw over the square root of the fan-in, a matrix's second dimension."""
    return rng.normal(size=shape) / math.sqrt(shape[1])


def zeros(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def weight(rng: np.random.Generator | None, shape: tuple[int, ...], draw=fan_in) -> Tensor:
    """A trainable weight ``draw(rng, shape)``; without a generator, unset for a load to fill."""
    return Tensor(np.empty(shape) if rng is None else draw(rng, shape), requires_grad=True)


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
        """Run every node's closure, then reduce each leaf's deferred rows.

        A leaf's row blocks were recorded in replay order, the reverse of
        creation order, so they are reversed before its one reduction. A
        closure that raises leaves nothing deferred: the blocks recorded so
        far are dropped, and no leaf takes a partial reduction. The blocks
        are module state, like ``no_grad``'s switch, so do not replay from
        concurrent threads.
        """
        global _deferred
        outer, _deferred = _deferred, {}
        try:
            for node in self.nodes:
                node._backward()
                node._backward = None
                node._parents = ()
            for t, lefts, blocks in _deferred.values():
                _reduce(t, None if lefts is None else lefts[::-1], blocks[::-1])
        finally:
            _deferred = outer


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
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ and neither is a scalar")
    if op == "add":
        data = a.data + b.data
    elif op == "sub":
        data = a.data - b.data
    else:
        data = a.data * b.data

    def _bw():
        g = out.grad
        if op == "mul":
            _accumulate_rows(a, g * b.data)
            _accumulate_rows(b, g * a.data)
        else:
            _accumulate_rows(a, g)
            _accumulate_rows(b, g if op == "add" else -g)

    out = _make(data, (a, b), _bw)
    return out


def _accumulate_rows(t: Tensor, rows: np.ndarray, left: np.ndarray | None = None) -> None:
    """Add the gradient that t takes from one node, as rows for one reduction.

    Without ``left``, rows is t's gradient or a stack of gradients that t
    takes summed, such as (B, *t.shape) for an operand broadcast over
    windows, or any shape for a scalar: rows of t.size entries each. With
    ``left``, t is a weight, and left (..., rows, m) and rows (..., rows, n)
    hold the two operands of its product ``left.T @ rows``. During a replay,
    a leaf t only records the rows, and ``Tape.replay_backward`` reduces all
    of t's rows after the last node. A non-leaf t, whose own closure is still
    to run, and a closure run outside a replay reduce them at once.
    """
    if not t.requires_grad:
        return
    if left is None:
        rows = rows.reshape(-1, t.size)
    if _deferred is None or t._backward is not None:
        _reduce(t, None if left is None else [left], [rows])
        return
    _, lefts, blocks = _deferred.setdefault(
        (id(t), left is None), (t, None if left is None else [], [])
    )
    if left is not None:
        lefts.append(left)
    blocks.append(rows)


def _reduce(t: Tensor, lefts: list[np.ndarray] | None, blocks: list[np.ndarray]) -> None:
    """Add one reduction over the blocks' rows into t's grad.

    The rows, in the blocks' order, make one matrix R, and the lefts' rows
    make L: t takes ``L.T @ R`` if it is a weight and R's row sum otherwise.
    One row is its own sum.
    """
    if lefts is not None:
        t._add_grad(_c_rows(lefts).T @ _c_rows(blocks))
        return
    rows = _c_rows(blocks)
    if len(rows) == 1:
        t.accumulate_grad(rows.reshape(t.shape))
    else:
        t._add_grad(np.add.reduce(rows, axis=0).reshape(t.shape))


def _c_rows(blocks: list[np.ndarray]) -> np.ndarray:
    """The blocks reshaped to rows and concatenated, as one C-contiguous matrix.

    The same rows thus reach numpy and BLAS in the same layout, whether they
    came as one (B, r, n) block or as B (r, n) ones, and whatever the layout
    of the arrays they came in (``np.concatenate`` alone keeps an F-ordered
    block's layout). A lone C-contiguous block already has that layout, and
    is read in place as its 2-D view.
    """
    if len(blocks) == 1 and blocks[0].flags.c_contiguous:
        return blocks[0].reshape(-1, blocks[0].shape[-1])
    rows = [b.reshape(-1, b.shape[-1]) for b in blocks]
    out = np.empty((sum(len(r) for r in rows), rows[0].shape[1]))
    return np.concatenate(rows, out=out)


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
            a._add_grad(g @ b.data.T)
        _accumulate_rows(b, g, left=a.data)

    out = _make(a.data @ b.data, (a, b), _bw)
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
    """``x[r0:r1, c0:c1]``; a (B, rows, width) x is sliced window by window."""
    _require_2d(x, "slice", windows=True)
    if not isinstance(key, tuple):
        key = (key, slice(None))
    if len(key) != 2:
        raise ShapeError("slice key must address rows and columns")
    r0, r1 = _normalize_slice(key[0], x.shape[-2], "rows")
    c0, c1 = _normalize_slice(key[1], x.shape[-1], "cols")

    def _bw():
        g = np.zeros_like(x.data)
        g[..., r0:r1, c0:c1] = out.grad
        _accumulate_rows(x, g)

    out = _make(x.data[..., r0:r1, c0:c1].copy(), (x,), _bw)
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
            _accumulate_rows(p, out.grad[..., off : off + r, :])
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
            _accumulate_rows(p, out.grad[..., off : off + c])
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


def repeat_rows(v: Tensor, n: int) -> Tensor:
    """Tile a (1, c) row vector into an (n, c) matrix."""
    _require_2d(v, "repeat_rows", windows=True)
    if v.shape[-2] != 1:
        raise ShapeError(f"repeat_rows expects a single row, got {v.shape}")
    if n < 1:
        raise ShapeError("repeat_rows needs n >= 1")
    y = np.repeat(v.data, n, axis=-2)
    out = _make(y, (v,), lambda: v._add_grad(out.grad.sum(axis=-2, keepdims=True)))
    return out


# -- layer kernels --------------------------------------------------------------------
#
# Each sublayer as a numpy forward, which returns its output and what its
# backward reads, and a backward (``*_grad``), which takes the output's
# gradient, records the weights' rows and returns the input's gradient. The
# fused ops below compose them.


def _softmax_last(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, shifted by the maximum for stability."""
    e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _softmax_last_grad(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Input gradient of ``_softmax_last`` with output ``s`` and output gradient ``g``."""
    return s * (g - np.add.reduce(g * s, axis=-1, keepdims=True))


def _normalize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(xhat, 1/std): each row shifted to zero mean and scaled to unit variance.

    The mean and the variance are those of numpy's ``mean`` and ``var``, each
    ``add.reduce / n``, with the mean subtracted once.
    """
    n = x.shape[-1]
    centred = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(centred * centred, axis=-1, keepdims=True) / n + LN_EPS)
    return centred * inv, inv


def _normalize_rows_grad(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Input gradient of ``_normalize_rows`` given the gradient ``g`` on xhat."""
    n = g.shape[-1]
    gm = np.add.reduce(g, axis=-1, keepdims=True) / n
    gx = np.add.reduce(g * xhat, axis=-1, keepdims=True) / n
    return inv * (g - gm - xhat * gx)


def _affine(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ W.T + b``."""
    y = x @ W.T
    y += b
    return y


def _layernorm(x: np.ndarray, g: Tensor, b: Tensor) -> tuple[np.ndarray, tuple]:
    """Row layer norm of x scaled by g and shifted by b: (y, what backward reads)."""
    xhat, inv = _normalize_rows(x)
    y = xhat * g.data
    y += b.data
    return y, (xhat, inv)


def _layernorm_grad(gy: np.ndarray, g: Tensor, b: Tensor, saved: tuple) -> np.ndarray:
    xhat, inv = saved
    if g.requires_grad:
        _accumulate_rows(g, gy * xhat)
    _accumulate_rows(b, gy)
    return _normalize_rows_grad(gy * g.data, xhat, inv)


_MASKS: dict[int, np.ndarray] = {}


def _causal_mask(n: int) -> np.ndarray:
    """The read-only (n, n) additive mask: -1e9 above the diagonal, one per length."""
    mask = _MASKS.get(n)
    if mask is None:
        mask = _MASKS[n] = np.triu(np.full((n, n), -1e9), k=1)
        mask.flags.writeable = False
    return mask


def _split_heads(m: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., n, d) -> contiguous (..., heads, n, d_head)."""
    return np.ascontiguousarray(m.reshape(*m.shape[:-1], n_heads, -1).swapaxes(-3, -2))


def _merge_heads(m: np.ndarray) -> np.ndarray:
    """(..., heads, n, d_head) -> (..., n, d)."""
    return m.swapaxes(-3, -2).reshape(*m.shape[:-3], m.shape[-2], -1)


def _attention(x: np.ndarray, Wq, Wk, Wv, Wo, n_heads: int) -> tuple[np.ndarray, tuple]:
    """Multi-head causal self-attention of (..., n, d) rows: (y, what backward reads).

    Q, K, V = x @ Wq, x @ Wk, x @ Wv; head h owns columns [h*d_head,
    (h+1)*d_head). Row i of head h is softmax over j <= i of q_i . k_j /
    sqrt(d_head), applied to the rows of v. The heads' outputs, concatenated
    along columns, are mapped by Wo. All heads run together on (heads, n,
    d_head) arrays.
    """
    q, k, v = (_split_heads(x @ W.data, n_heads) for W in (Wq, Wk, Wv))
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(q.shape[-1]))
    p = _softmax_last(scores + _causal_mask(x.shape[-2]))
    heads = _merge_heads(p @ v)
    return heads @ Wo.data, (x, q, k, v, p, heads)


def _attention_grad(g: np.ndarray, Wq, Wk, Wv, Wo, saved: tuple) -> np.ndarray:
    x, q, k, v, p, heads = saved
    _accumulate_rows(Wo, g, left=heads)
    g_heads = _split_heads(g @ Wo.data.T, q.shape[-3])
    g_scores = _softmax_last_grad(g_heads @ v.swapaxes(-1, -2), p) * (1.0 / math.sqrt(q.shape[-1]))
    grads = (
        (Wq, _merge_heads(g_scores @ k)),
        (Wk, _merge_heads(g_scores.swapaxes(-1, -2) @ q)),
        (Wv, _merge_heads(p.swapaxes(-1, -2) @ g_heads)),
    )
    for W, gm in grads:
        _accumulate_rows(W, gm, left=x)
    return sum(gm @ W.data.T for W, gm in grads)


def _softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x) computed without overflow for large |x|."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


class PlanarParams(NamedTuple):
    """A packed planar row, unpacked: (1, d) rows a, w, w_hat and (1, 1) scalars.

    Rows (B, 1, 2d + 1) give one of each per window.
    """

    a: np.ndarray
    w: np.ndarray
    b: np.ndarray
    wa: np.ndarray
    m: np.ndarray
    r: np.ndarray
    coef: np.ndarray
    w_hat: np.ndarray

    @property
    def wa_hat(self) -> np.ndarray:
        """w_hat.a, (..., 1, 1): the invertibility margin, always above -1."""
        return self.w_hat @ self.a.swapaxes(-1, -2)


def planar_unpack(theta: np.ndarray, margin: float, norm_eps: float) -> PlanarParams:
    """Split the packed row(s) [a | w | b] and reparameterize w for invertibility.

    wa = w.a, m = softplus(wa) + margin - 1, r = 1 / (|a|^2 + norm_eps),
    coef = (m - wa) r and w_hat = w + coef a, so that w_hat.a > -1.
    ``planar_layer`` and the flow's inverse and log-det all unpack here.
    """
    d = (theta.shape[-1] - 1) // 2
    # contiguous copies, which fix the layout (and so the bits) of the products below
    a = theta[..., 0:d].copy()
    w = theta[..., d : 2 * d].copy()
    b = theta[..., 2 * d :].copy()
    wa = w @ a.swapaxes(-1, -2)  # (..., 1, 1)
    m = _softplus(wa) + (margin - 1.0)
    r = 1.0 / (np.add.reduce(a * a, axis=-1, keepdims=True) + norm_eps)
    coef = (m - wa) * r
    return PlanarParams(a, w, b, wa, m, r, coef, w + coef * a)


def _planar(u: np.ndarray, theta: np.ndarray, margin: float, norm_eps: float):
    """u + tanh(u . a + b) w_hat for the packed row(s) theta: (y, what backward reads)."""
    params = planar_unpack(theta, margin, norm_eps)
    gate = np.tanh(u @ params.a.swapaxes(-1, -2) + params.b)  # (..., S, 1)
    return u + gate @ params.w_hat, (u, params, gate)


def _planar_grad(g: np.ndarray, saved: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(u's gradient, theta's gradient)."""
    u, (a, w, b, wa, m, r, coef, w_hat), gate = saved
    g_pre = (g @ w_hat.swapaxes(-1, -2)) * (1.0 - gate * gate)  # (..., S, 1)
    g_w_hat = gate.swapaxes(-1, -2) @ g  # (..., 1, d)
    g_coef = np.add.reduce(g_w_hat * a, axis=(-2, -1), keepdims=True)
    g_num = g_coef * r  # gradient on m - w.a
    g_wa = g_num / (1.0 + np.exp(-wa)) - g_num  # through softplus(w.a) and -w.a
    g_norm2 = -g_coef * (m - wa) * r * r
    g_a = g_pre.swapaxes(-1, -2) @ u + coef * g_w_hat + (2.0 * g_norm2) * a + g_wa * w
    g_w = g_w_hat + g_wa * a
    g_b = np.add.reduce(g_pre, axis=(-2, -1), keepdims=True)
    return g + g_pre @ a, np.concatenate([g_a, g_w, g_b], axis=-1)


def _linear_split(u: np.ndarray, h: np.ndarray, W: Tensor, b: Tensor) -> np.ndarray:
    """``[u | h] @ W.T + b`` of latent rows u and one row h: h's product once, as a bias row."""
    d_u = u.shape[-1]
    y = u @ W.data[:, :d_u].T
    y += _affine(h, W.data[:, d_u:], b.data)
    return y


def _linear_split_grad(g: np.ndarray, u: Tensor, h: Tensor, W: Tensor, b: Tensor) -> None:
    """Adds u's and h's gradients and records W's and b's rows.

    h takes the row sum of g, through its bias row; W takes the product over
    the ``[u | h]`` rows, as in ``linear``: cheaper at training's S than an
    outer product for h's columns plus a concatenation of the two blocks.
    """
    d_u = u.shape[-1]
    if u.requires_grad:
        u._add_grad(g @ W.data[:, :d_u])
    if h.requires_grad:
        h._add_grad(np.add.reduce(g, axis=-2, keepdims=True) @ W.data[:, d_u:])
    if W.requires_grad:
        h_rows = np.broadcast_to(h.data, (*u.shape[:-1], h.shape[-1]))
        _accumulate_rows(W, np.concatenate([u.data, h_rows], axis=-1), left=g)
    _accumulate_rows(b, g)


def _tanh_affine_grad(g: np.ndarray, t: np.ndarray, W: Tensor, b: Tensor) -> np.ndarray:
    """The gradient on the pre-activation of ``tanh(pre) @ W.T + b``, t = tanh(pre)."""
    _accumulate_rows(W, t, left=g)
    _accumulate_rows(b, g)
    return (g @ W.data) * (1.0 - t * t)


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
            x._add_grad(g @ W.data)
        _accumulate_rows(W, x.data, left=g)
        _accumulate_rows(b, g)

    out = _make(_affine(x.data, W.data, b.data), (x, W, b), _bw)
    return out


def transformer(x: Tensor, pos: Tensor, blocks: Sequence[tuple[Tensor, ...]],
                final: tuple[Tensor, Tensor], n_heads: int) -> Tensor:
    """A pre-norm causal transformer over (n, d) rows, as one graph node.

    h = x + pos[:n]; then each block (Wq, Wk, Wv, Wo, ln1_g, ln1_b, ln2_g,
    ln2_b, W1, W2) adds ``_attention`` of h's first affine layer norm, then
    tanh(LN2(h) @ W1) @ W2; ``final`` (g, b) is the last layer norm. A stack
    (B, n, d) runs as one pass, pos broadcast over it. Backward adds each
    residual branch's gradient to the stream's, and pos takes the window sum
    of its rows.
    """
    n = x.shape[-2]
    h = x.data + pos.data[:n]
    saved = []
    for Wq, Wk, Wv, Wo, g1, b1, g2, b2, W1, W2 in blocks:
        att_in, ln1 = _layernorm(h, g1, b1)
        att, att_saved = _attention(att_in, Wq, Wk, Wv, Wo, n_heads)
        h = h + att
        ff_in, ln2 = _layernorm(h, g2, b2)
        t = np.tanh(ff_in @ W1.data)
        h = h + t @ W2.data
        saved.append((ln1, att_saved, ln2, ff_in, t))
    y, ln_f = _layernorm(h, *final)

    def _bw():
        g_h = _layernorm_grad(out.grad, *final, ln_f)
        for (Wq, Wk, Wv, Wo, g1, b1, g2, b2, W1, W2), (ln1, att_saved, ln2, ff_in, t) in zip(
            reversed(blocks), reversed(saved)
        ):
            _accumulate_rows(W2, g_h, left=t)
            g_ff = (g_h @ W2.data.T) * (1.0 - t * t)
            _accumulate_rows(W1, g_ff, left=ff_in)
            g_h = g_h + _layernorm_grad(g_ff @ W1.data.T, g2, b2, ln2)
            g_att_in = _attention_grad(g_h, Wq, Wk, Wv, Wo, att_saved)
            g_h = g_h + _layernorm_grad(g_att_in, g1, b1, ln1)
        if pos.requires_grad:
            windows = g_h.reshape(-1, *g_h.shape[-2:])
            g_pos = np.zeros_like(pos.data)
            g_pos[:n] = windows[0] if len(windows) == 1 else np.add.reduce(windows, axis=0)
            _accumulate_rows(pos, g_pos)
        _accumulate_rows(x, g_h)

    out = _make(y, (x, pos, *(w for block in blocks for w in block), *final), _bw)
    return out


def hypernet(h: np.ndarray, U1: Tensor, c1: Tensor, U2: Tensor, c2: Tensor):
    """(tanh rows, output rows) of ``tanh(h @ U1.T + c1) @ U2.T + c2`` at numpy rows h.

    Records no graph: ``planar_layer`` computes its theta here, and so do
    the flow's diagnostics.
    """
    t = np.tanh(_affine(h, U1.data, c1.data))
    return t, _affine(t, U2.data, c2.data)


def _require_theta(u: Tensor, theta_shape: tuple[int, ...], op: str) -> None:
    if theta_shape != (*u.shape[:-2], 1, 2 * u.shape[-1] + 1):
        raise ShapeError(f"{op}: parameter row {theta_shape} for latents {u.shape}")


def planar_layer(u: Tensor, h: Tensor, U1: Tensor, c1: Tensor, U2: Tensor, c2: Tensor,
                 margin: float, norm_eps: float) -> Tensor:
    """A planar step whose row theta a hypernet computes from h, as one graph node.

    Each latent row of u (S, d) maps to u + tanh(u . a + b) w_hat, where
    [a | w | b] is the ``hypernet`` row theta of h (1, d_h) and w_hat comes
    from ``planar_unpack``, so w_hat.a > -1 and the map is invertible.
    Latents (B, S, d) take summaries (B, 1, d_h), one per window.
    """
    _require_2d(u, "planar_layer", windows=True)
    t, theta = hypernet(h.data, U1, c1, U2, c2)
    _require_theta(u, theta.shape, "planar_layer")
    y, saved = _planar(u.data, theta, margin, norm_eps)

    def _bw():
        g_u, g_theta = _planar_grad(out.grad, saved)
        if u.requires_grad:
            u._add_grad(g_u)
        g_pre = _tanh_affine_grad(g_theta, t, U2, c2)
        if h.requires_grad:
            h._add_grad(g_pre @ U1.data)
        _accumulate_rows(U1, h.data, left=g_pre)
        _accumulate_rows(c1, g_pre)

    out = _make(y, (u, h, U1, c1, U2, c2), _bw)
    return out


def _require_split(u: Tensor, h: Tensor, W: Tensor, b: Tensor, op: str) -> None:
    _require_2d(u, op, windows=True)
    _require_2d(h, op, windows=True)
    _require_2d(W, op)
    if h.shape[-2] != 1:
        raise ShapeError(f"{op}: h must be a single row, got {h.shape}")
    if h.shape[:-2] != u.shape[:-2]:
        raise ShapeError(f"{op}: window axes differ for u {u.shape} and h {h.shape}")
    if u.shape[-1] + h.shape[-1] != W.shape[1]:
        raise ShapeError(
            f"{op}: widths {u.shape[-1]} + {h.shape[-1]} for a weight of shape {W.shape}"
        )
    _require_rowvec(b, W.shape[0], f"{op} bias")


def mlp_split(u: Tensor, h: Tensor, W1: Tensor, b1: Tensor, W2: Tensor, b2: Tensor) -> Tensor:
    """``tanh([u | h] @ W1.T + b1) @ W2.T + b2`` of latent rows u and one row h, as one node.

    h's product with W1 runs once per window, as a bias row (``_linear_split``).
    """
    _require_split(u, h, W1, b1, "mlp_split")
    t = np.tanh(_linear_split(u.data, h.data, W1, b1))

    def _bw():
        _linear_split_grad(_tanh_affine_grad(out.grad, t, W2, b2), u, h, W1, b1)

    out = _make(_affine(t, W2.data, b2.data), (u, h, W1, b1, W2, b2), _bw)
    return out


# -- scoring ops -----------------------------------------------------------------


def _rank_coefficients(s: int) -> np.ndarray:
    """Weight 2k - s + 1 of the k-th smallest of s samples (k = 0..s-1)."""
    return 2.0 * np.arange(s) - s + 1.0


def pairwise_spread(sorted_rows: np.ndarray) -> np.ndarray:
    """sum_{i<j} |x_i - x_j| down axis -2 of rows sorted ascending along it.

    Uses sum_k (2k - S + 1) x_(k), which costs one sort instead of S(S-1)/2
    differences (the scoringRules estimator, Jordan, Kruger & Lerch 2019).
    ``sorted_rows`` is (S, n), S sorted samples of n columns, giving (n,), or
    a (B, S, n) stack of them, giving (B, n). The product is one BLAS call
    per (S, n) block, so each window of a stack gets the bits of its own call.
    """
    return _rank_coefficients(sorted_rows.shape[-2]) @ sorted_rows


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
    spread = pairwise_spread(np.take_along_axis(samples.data, order, axis=-2))
    value = np.abs(diff).sum(axis=(-2, -1)) * (1.0 / (s * n)) - spread.sum(axis=-1) * (
        1.0 / (s * (s - 1) * n)
    )

    def _bw():
        g = out.grad[..., None, None]
        sign = np.sign(diff) * (g / (s * n))
        coeff = np.empty_like(samples.data)
        np.put_along_axis(coeff, order, _rank_coefficients(s)[:, None], axis=-2)
        samples._add_grad(sign - coeff * (g / (s * (s - 1) * n)))
        target._add_grad(-sign.sum(axis=-2, keepdims=True))

    out = _make(np.asarray(value), (samples, target), _bw)
    return out


# -- utilities ----------------------------------------------------------------


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
    for p in points:
        p.zero_grad()
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
