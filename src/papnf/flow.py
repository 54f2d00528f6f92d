"""Conditional planar normalizing-flow decoder.

A Gaussian latent u0 is pushed through T planar layers whose per-layer
parameters (a_t, w_t, b_t) come from small hypernetworks conditioned on the
fused summary h; the transported latent plus h feed an affine-tanh-affine
reconstruction head that emits the standardized forecast.

Each planar map u' = u + w_hat * tanh(a.u + b) stays invertible because w is
reparameterized so that w_hat.a = -1 + PLANAR_MARGIN + softplus(w.a) > -1.
There is one flow path: ``flow_forward`` chains each layer's ``step``, one
graph node (``tz.planar_layer``) for its hypernet and its planar map. The
diagnostics ``flow_invert`` and ``flow_log_det``, which never enter a
training loss, read each layer's ``hyper_row``, the same ``tz.hypernet``
the op computes theta with, and unpack it with the op's own
``tz.planar_unpack``. All three take latent rows (S, d_u), or (B, S, d_u)
with one h row per window. The reconstruction head is one graph node too
(``tz.mlp_split``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from papnf import tensor as tz
from papnf.metrics import sorted_quantile
from papnf.seeding import substream
from papnf.tensor import Layer, ShapeError, Tensor, weight, zeros

# Keeps w_hat.a strictly above -1 with comfortable headroom over the 1e-4
# invertibility floor even after the epsilon-guarded division below.
PLANAR_MARGIN = 1e-3
_NORM_EPS = 1e-12
# Windows per forward pass when sampling a split: enough to spread the
# per-op Python cost, small enough that a chunk's arrays stay a few MB.
SAMPLE_CHUNK = 8


class FusionLayer(Layer):
    """h = W_h [z; c] + b_h, joining the global encoding and the context."""

    name = "fusion"

    def __init__(self, d_n: int, d_c: int, d_h: int, rng: np.random.Generator | None):
        self.W_h = weight(rng, (d_h, d_n + d_c))
        self.b_h = weight(rng, (d_h,), zeros)

    def fuse(self, z: Tensor, c: Tensor) -> Tensor:
        if z.shape[-2] != 1 or c.shape[-2] != 1:
            raise ShapeError(f"fuse expects row vectors, got {z.shape} and {c.shape}")
        return tz.linear(tz.concat_cols([z, c]), self.W_h, self.b_h)


class FlowLayer(Layer):
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

    def __init__(self, index: int, d_h: int, d_u: int, hidden: int, rng: np.random.Generator | None):
        self.index = index
        self.name = f"flow.{index}"
        out_dim = 2 * d_u + 1
        self.U1 = weight(rng, (hidden, d_h))
        self.c1 = weight(rng, (hidden,), zeros)
        self.U2 = weight(rng, (out_dim, hidden), zeros)
        offset = self.A_BIAS_NORM / math.sqrt(d_u)  # on a, the packed row's first d_u entries
        self.c2 = weight(rng, (out_dim,), lambda rng, shape: (np.arange(out_dim) < d_u) * offset)

    def hyper_row(self, h: Tensor) -> Tensor:
        """Map h (1, d_h) to the packed (1, 2*d_u + 1) row [a | w | b], recording no graph.

        Summaries (B, 1, d_h) give one row per window, (B, 1, 2*d_u + 1).
        The row is the one ``step`` computes, through the same ``tz.hypernet``.
        """
        return Tensor(tz.hypernet(h.data, self.U1, self.c1, self.U2, self.c2)[1])

    def step(self, u_rows: Tensor, h: Tensor) -> Tensor:
        """Latents (S, d_u) through the planar map h conditions, as one graph node."""
        weights = (self.U1, self.c1, self.U2, self.c2)
        return tz.planar_layer(u_rows, h, *weights, PLANAR_MARGIN, _NORM_EPS)


def invert_planar(u_prime: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The latents u that the planar step maps to u_prime under theta.

    theta is the packed (1, 2d + 1) row [a | w | b] for rows u_prime (S, d),
    or (B, 1, 2d + 1) for (B, S, d). With s = a.u, the forward map implies
    g(s) = s + (w_hat.a) tanh(s + b) = a.u'; g is strictly increasing because
    w_hat.a > -1, so each row's scalar root is bracketed and found by
    bisection, with a Newton cut refining the same bracket. The unconditional
    midpoint cut is what guarantees geometric convergence: a large positive
    w_hat.a turns g into a near-step cliff between flat shoulders, where
    guarded Newton alone can ping-pong across the cliff for hundreds of
    iterations without tightening the bracket. A row is frozen once its
    bracket is below 1e-15 relative or holds no representable midpoint.
    """
    p = tz.planar_unpack(np.asarray(theta, dtype=np.float64), PLANAR_MARGIN, _NORM_EPS)
    u_prime = np.asarray(u_prime, dtype=np.float64)
    target = u_prime @ p.a.swapaxes(-1, -2)  # (..., S, 1)
    wa_hat, b = p.wa_hat, p.b
    lo = target - np.abs(wa_hat) - 1.0
    hi = target + np.abs(wa_hat) + 1.0
    active = np.ones(target.shape, dtype=bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        active &= (lo < mid) & (mid < hi)
        if not active.any():
            break
        t = np.tanh(mid + b)
        val = mid + wa_hat * t - target
        above = val > 0.0
        hi = np.where(active & above, mid, hi)
        lo = np.where(active & ~above, mid, lo)
        step = mid - val / (1.0 + wa_hat * (1.0 - t * t))
        cut = active & (lo < step) & (step < hi)
        above = step + wa_hat * np.tanh(step + b) - target > 0.0
        hi = np.where(cut & above, step, hi)
        lo = np.where(cut & ~above, step, lo)
        active &= hi - lo > 1e-15 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    s = 0.5 * (lo + hi)
    return u_prime - np.tanh(s + b) @ p.w_hat


def flow_forward(u_rows: Tensor, h: Tensor, layers: list[FlowLayer]) -> Tensor:
    """Push (S, d_u) latents through every planar layer conditioned on h."""
    out = u_rows
    for layer in layers:
        out = layer.step(out, h)
    return out


def _hyper_rows(h: np.ndarray, layers: list[FlowLayer]) -> list[np.ndarray]:
    """Every layer's packed row at a numpy h."""
    return [layer.hyper_row(Tensor(h)).data for layer in layers]


def flow_invert(u_final: np.ndarray, h: np.ndarray, layers: list[FlowLayer]) -> np.ndarray:
    """The latents u0 that ``flow_forward`` maps to u_final, row by row."""
    out = u_final
    for theta in reversed(_hyper_rows(h, layers)):
        out = invert_planar(out, theta)
    return out


def flow_log_det(u0: np.ndarray, h: np.ndarray, layers: list[FlowLayer]) -> np.ndarray:
    """Diagnostic only: log |det J| of the full flow at each latent row.

    Latents (S, d_u) give shape (S,), and (B, S, d_u) give (B, S). Each
    planar map contributes log |1 + (1 - tanh^2(a.u + b)) w_hat.a|.
    """
    u = np.asarray(u0, dtype=np.float64)
    total = np.zeros(u.shape[:-1])
    for theta in _hyper_rows(h, layers):
        p = tz.planar_unpack(theta, PLANAR_MARGIN, _NORM_EPS)
        t = np.tanh(u @ p.a.swapaxes(-1, -2) + p.b)  # (..., S, 1): the op's gate
        total += np.log(np.abs(1.0 + (1.0 - t * t) * p.wa_hat))[..., 0]
        u = u + t @ p.w_hat
    return total


class ReconstructionHead(Layer):
    """Affine-tanh-affine map from [u_T; h] to the standardized horizon.

    The whole head is one graph node, ``tz.mlp_split``. Every latent row of
    a window shares its h, so h's columns of G1, plus g1, make one bias row
    per window, added to each latent row's product with the u columns. G1
    stays one (hidden, d_u + d_h) weight. Latents (B, S, d_u) with summaries
    (B, 1, d_h) take a leading window axis.
    """

    name = "recon"

    def __init__(self, d_u: int, d_h: int, hidden: int, out_dim: int, rng: np.random.Generator | None):
        self.G1 = weight(rng, (hidden, d_u + d_h))
        self.g1 = weight(rng, (hidden,), zeros)
        self.G2 = weight(rng, (out_dim, hidden))
        self.g2 = weight(rng, (out_dim,), zeros)

    def reconstruct(self, u_rows: Tensor, h: Tensor) -> Tensor:
        """(S, d_u) latents + (1, d_h) summary -> (S, H*C) standardized rows."""
        return tz.mlp_split(u_rows, h, self.G1, self.g1, self.G2, self.g2)


@dataclass
class ForecastEnsemble:
    """S sampled trajectories on the original scale: samples is (S, H, C)."""

    window_index: int
    samples: np.ndarray

    def __post_init__(self):
        if self.samples.ndim != 3 or self.samples.shape[0] < 1:
            raise ValueError(f"samples must be (S>=1, H, C), got {self.samples.shape}")

    def mean(self) -> np.ndarray:
        return self.samples.mean(axis=0)

    def quantiles(self, levels) -> np.ndarray:
        """(len(levels), H, C) empirical quantiles from one sort of the samples.

        Linear interpolation, bit for bit equal to numpy's default quantile.
        """
        ordered = np.sort(self.samples, axis=0)
        return np.stack([sorted_quantile(ordered, q) for q in levels])


def sample_chunk(windows, model, n_samples: int, rngs) -> list[ForecastEnsemble]:
    """Draw an S-trajectory ensemble for each window, on the original scale.

    Window i's latents come from ``rngs[i]``. All windows run through one
    forward pass under ``no_grad``, the window a leading axis (a lone window
    too): the conditioning (z, c, h) once per window, and all S latents of
    each window through the flow and the reconstruction together. Each
    ensemble is bitwise the one the window gets from a 2-D pass alone.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if len(rngs) != len(windows):
        raise ValueError(f"{len(rngs)} generators for {len(windows)} windows")
    u0 = np.array([rng.standard_normal((n_samples, model.cfg.d_u)) for rng in rngs])
    x_std = np.array([w.x_std for w in windows])
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
