"""Conditional planar normalizing-flow decoder.

A Gaussian latent u0 is pushed through T planar layers whose per-layer
parameters (a_t, w_t, b_t) come from small hypernetworks conditioned on the
fused summary h; the transported latent plus h feed an affine-tanh-affine
reconstruction head that emits the standardized forecast.

Each planar map u' = u + w_hat * tanh(a.u + b) stays invertible because w is
reparameterized so that w_hat.a = -1 + PLANAR_MARGIN + softplus(w.a) > -1.
The numpy helpers below (``hyper_np``, ``planar_step_np``, ``flow_forward_np``)
run the same Tensor ops as training under ``no_grad``; only the inversion and
the log-determinant, a diagnostic that never enters a training loss, are
numpy-only, and they share ``tensor.planar_reparameterize`` with the op.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from papnf import tensor as tz
from papnf.metrics import sorted_quantile
from papnf.seeding import substream
from papnf.tensor import ShapeError, Tensor

# Keeps w_hat.a strictly above -1 with comfortable headroom over the 1e-4
# invertibility floor even after the epsilon-guarded division below.
PLANAR_MARGIN = 1e-3
_NORM_EPS = 1e-12
# Windows per forward pass when sampling a split: enough to spread the
# per-op Python cost, small enough that a chunk's arrays stay a few MB.
SAMPLE_CHUNK = 8


class FusionLayer:
    """h = W_h [z; c] + b_h, joining the global encoding and the context."""

    def __init__(self, d_n: int, d_c: int, d_h: int, rng: np.random.Generator):
        self.W_h = Tensor(rng.normal(size=(d_h, d_n + d_c)) / math.sqrt(d_n + d_c), requires_grad=True)
        self.b_h = Tensor(np.zeros(d_h), requires_grad=True)

    def fuse(self, z: Tensor, c: Tensor) -> Tensor:
        if z.shape[-2] != 1 or c.shape[-2] != 1:
            raise ShapeError(f"fuse expects row vectors, got {z.shape} and {c.shape}")
        joined = tz.concat_cols([z, c])
        if joined.shape[-1] != self.W_h.shape[1]:
            raise ShapeError(
                f"fuse: [z; c] has width {joined.shape[-1]}, expected {self.W_h.shape[1]}"
            )
        return tz.linear(joined, self.W_h, self.b_h)

    def parameters(self) -> dict[str, Tensor]:
        return {"fusion.W_h": self.W_h, "fusion.b_h": self.b_h}


class FlowLayer:
    """One planar step plus the hypernetwork that conditions it on h.

    The hypernet is a two-layer MLP whose final weight matrix starts at zero
    so the step starts near the identity. The bias's gate-direction slice is
    offset slightly: with (a, w, b) all exactly zero, every gradient into the
    hypernet vanishes identically (gate and w_hat are both zero, and each
    multiplies the other's path), so a fully zeroed final layer is a
    stationary point Adam can never leave. The offset keeps ||a|| = 0.3,
    which bounds the initial displacement by ||w_hat|| = |m(0)|/||a|| while
    letting gradients reach every flow parameter from the first step.
    """

    A_BIAS_NORM = 0.3

    def __init__(self, index: int, d_h: int, d_u: int, hidden: int, rng: np.random.Generator):
        self.index = index
        self.d_u = d_u
        out_dim = 2 * d_u + 1
        self.U1 = Tensor(rng.normal(size=(hidden, d_h)) / math.sqrt(d_h), requires_grad=True)
        self.c1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.U2 = Tensor(np.zeros((out_dim, hidden)), requires_grad=True)
        c2 = np.zeros(out_dim)
        c2[0:d_u] = self.A_BIAS_NORM / math.sqrt(d_u)
        self.c2 = Tensor(c2, requires_grad=True)

    def hyper_row(self, h: Tensor) -> Tensor:
        """Map h (1, d_h) to the packed (1, 2*d_u + 1) row [a | w | b]."""
        return tz.linear(tz.linear(h, self.U1, self.c1).tanh(), self.U2, self.c2)

    def hyper_np(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """``hyper_row`` at a numpy h, split into (a, w, b), for diagnostics and inversion."""
        with tz.no_grad():
            row = self.hyper_row(Tensor(np.reshape(h, (1, -1)))).data.reshape(-1)
        d_u = self.d_u
        return row[0:d_u], row[d_u : 2 * d_u], float(row[2 * d_u])

    def parameters(self) -> dict[str, Tensor]:
        p = f"flow.{self.index}"
        return {f"{p}.U1": self.U1, f"{p}.c1": self.c1, f"{p}.U2": self.U2, f"{p}.c2": self.c2}


def reparameterize_np(a: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
    """``planar_step``'s reparameterization of vectors a and w.

    Returns (w_hat, w_hat.a); the second value always exceeds -1 + 1e-4.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    w = np.asarray(w, dtype=np.float64).reshape(1, -1)
    w_hat = tz.planar_reparameterize(a[None, :], w, PLANAR_MARGIN, _NORM_EPS)[-1].reshape(-1)
    return w_hat, float(w_hat @ a)


def planar_step_np(u: np.ndarray, a: np.ndarray, w: np.ndarray, b: float) -> np.ndarray:
    """``tz.planar_step`` on one latent u, with (a, w, b) packed into its parameter row.

    No operand requires grad, so the op records no graph.
    """
    theta = np.concatenate([np.ravel(a), np.ravel(w), [b]])[None, :]
    out = tz.planar_step(Tensor(np.reshape(u, (1, -1))), Tensor(theta), PLANAR_MARGIN, _NORM_EPS)
    return out.data.reshape(-1)


def invert_planar_np(u_prime: np.ndarray, a: np.ndarray, w: np.ndarray, b: float) -> np.ndarray:
    """Numerically invert one planar map.

    With s = a.u, the forward map implies g(s) = s + (w_hat.a) tanh(s + b)
    = a.u'; g is strictly increasing because w_hat.a > -1, so the scalar root
    is bracketed and found by bisection, with a Newton cut refining the same
    bracket. The unconditional midpoint cut is what guarantees geometric
    convergence: a large positive w_hat.a turns g into a near-step cliff
    between flat shoulders, where guarded Newton alone can ping-pong across
    the cliff for hundreds of iterations without tightening the bracket.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    u_prime = np.asarray(u_prime, dtype=np.float64).reshape(-1)
    w_hat, wa_hat = reparameterize_np(a, w)
    target = float(a @ u_prime)
    lo = target - abs(wa_hat) - 1.0
    hi = target + abs(wa_hat) + 1.0

    def g(s: float) -> float:
        return s + wa_hat * math.tanh(s + b) - target

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # no representable point between the brackets
            break
        val = g(mid)
        if val > 0.0:
            hi = mid
        else:
            lo = mid
        deriv = 1.0 + wa_hat * (1.0 - math.tanh(mid + b) ** 2)
        step = mid - val / deriv
        if lo < step < hi:
            if g(step) > 0.0:
                hi = step
            else:
                lo = step
        if hi - lo <= 1e-15 * max(1.0, abs(lo), abs(hi)):
            break
    s = 0.5 * (lo + hi)
    return u_prime - w_hat * math.tanh(s + b)


def flow_forward(u_rows: Tensor, h: Tensor, layers: list[FlowLayer]) -> Tensor:
    """Push (S, d_u) latents through every planar layer conditioned on h."""
    out = u_rows
    for layer in layers:
        out = tz.planar_step(out, layer.hyper_row(h), PLANAR_MARGIN, _NORM_EPS)
    return out


def flow_forward_np(u: np.ndarray, h: np.ndarray, layers: list[FlowLayer]) -> np.ndarray:
    """``flow_forward`` on one numpy latent u, conditioned on a numpy h."""
    with tz.no_grad():
        out = flow_forward(Tensor(np.reshape(u, (1, -1))), Tensor(np.reshape(h, (1, -1))), layers)
    return out.data.reshape(-1)


def flow_invert_np(u_final: np.ndarray, h: np.ndarray, layers: list[FlowLayer]) -> np.ndarray:
    out = np.asarray(u_final, dtype=np.float64).reshape(-1)
    for layer in reversed(layers):
        a, w, b = layer.hyper_np(h)
        out = invert_planar_np(out, a, w, b)
    return out


def flow_log_det_np(u0: np.ndarray, h: np.ndarray, layers: list[FlowLayer]) -> float:
    """Diagnostic only: log |det dJ| of the full flow at one latent."""
    u = np.asarray(u0, dtype=np.float64).reshape(-1)
    total = 0.0
    for layer in layers:
        a, w, b = layer.hyper_np(h)
        w_hat, _ = reparameterize_np(a, w)
        t = math.tanh(float(a @ u) + b)
        psi = (1.0 - t * t) * a
        total += math.log(abs(1.0 + float(w_hat @ psi)))
        u = u + w_hat * t
    return total


class ReconstructionHead:
    """Affine-tanh-affine map from [u_T; h] to the standardized horizon.

    Every latent row of a window shares its h, so G1's first affine map runs
    as ``tz.linear_split``: h's columns of G1, plus g1, make one bias row per
    window, added to each latent row's product with the u columns. G1 stays
    one (hidden, d_u + d_h) weight. Latents (B, S, d_u) with summaries
    (B, 1, d_h) take a leading window axis.
    """

    def __init__(self, d_u: int, d_h: int, hidden: int, out_dim: int, rng: np.random.Generator):
        in_dim = d_u + d_h
        self.G1 = Tensor(rng.normal(size=(hidden, in_dim)) / math.sqrt(in_dim), requires_grad=True)
        self.g1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.G2 = Tensor(rng.normal(size=(out_dim, hidden)) / math.sqrt(hidden), requires_grad=True)
        self.g2 = Tensor(np.zeros(out_dim), requires_grad=True)

    def reconstruct(self, u_rows: Tensor, h: Tensor) -> Tensor:
        """(S, d_u) latents + (1, d_h) summary -> (S, H*C) standardized rows."""
        hidden = tz.linear_split(u_rows, h, self.G1, self.g1).tanh()
        return tz.linear(hidden, self.G2, self.g2)

    def parameters(self) -> dict[str, Tensor]:
        return {"recon.G1": self.G1, "recon.g1": self.g1, "recon.G2": self.G2, "recon.g2": self.g2}


def sample_base(rng: np.random.Generator, d_u: int) -> np.ndarray:
    """One standard-normal base latent."""
    return rng.standard_normal(d_u)


@dataclass
class ForecastEnsemble:
    """S sampled trajectories on the original scale: samples is (S, H, C)."""

    window_index: int
    samples: np.ndarray

    def __post_init__(self):
        if self.samples.ndim != 3 or self.samples.shape[0] < 1:
            raise ValueError(f"samples must be (S>=1, H, C), got {self.samples.shape}")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    def mean(self) -> np.ndarray:
        return self.samples.mean(axis=0)

    def quantiles(self, levels) -> np.ndarray:
        """(len(levels), H, C) empirical quantiles from one sort of the samples.

        Linear interpolation, bit for bit equal to numpy's default quantile.
        """
        ordered = np.sort(self.samples, axis=0)
        return np.stack([sorted_quantile(ordered, q) for q in levels])

    def quantile(self, q: float) -> np.ndarray:
        """Per-(step, channel) empirical quantile with linear interpolation."""
        return self.quantiles((q,))[0]

    def interval(self, level: float) -> tuple[np.ndarray, np.ndarray]:
        """Central interval bounds at the given coverage level."""
        alpha = (1.0 - level) / 2.0
        lo, hi = self.quantiles((alpha, 1.0 - alpha))
        return lo, hi


def sample_chunk(windows, model, n_samples: int, rngs) -> list[ForecastEnsemble]:
    """Draw an S-trajectory ensemble for each window, on the original scale.

    Window i's latents come from ``rngs[i]``. All windows run through one
    forward pass under ``no_grad``, the window a leading axis (a lone window
    runs without it): the conditioning (z, c, h) once per window, and all S
    latents of each window through the flow and the reconstruction together.
    Each ensemble is bitwise the one the window gets alone.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if len(rngs) != len(windows):
        raise ValueError(f"{len(rngs)} generators for {len(windows)} windows")
    u0 = np.array([rng.standard_normal((n_samples, model.cfg.d_u)) for rng in rngs])
    x_std = np.array([w.x_std for w in windows])
    if len(windows) == 1:  # a lone window skips the per-op cost of a window axis
        u0, x_std = u0[0], x_std[0]
    with tz.no_grad():
        rows = model.forward_samples(x_std, u0)  # (B, S, H*C) standardized
    std = rows.data.reshape(len(windows), n_samples, model.cfg.horizon, model.cfg.channels)
    return [
        ForecastEnsemble(window_index=w.index, samples=w.scaler.destandardize(block))
        for w, block in zip(windows, std)
    ]


def sample_forecasts(window, model, n_samples: int, rng: np.random.Generator) -> ForecastEnsemble:
    """Draw an S-trajectory ensemble for one window: a chunk of one."""
    return sample_chunk([window], model, n_samples, [rng])[0]


def sample_windows(
    windows, model, n_samples: int, seed: int, stream: str
) -> list[ForecastEnsemble]:
    """Every window's ensemble, SAMPLE_CHUNK windows per forward pass.

    Window w draws from substream(seed, stream, w.index), so its ensemble
    does not depend on which other windows the list holds.
    """
    out: list[ForecastEnsemble] = []
    for start in range(0, len(windows), SAMPLE_CHUNK):
        chunk = windows[start : start + SAMPLE_CHUNK]
        rngs = [substream(seed, stream, int(w.index)) for w in chunk]
        out += sample_chunk(chunk, model, n_samples, rngs)
    return out
