"""Demo: one window's journey through the model.

Traces every stage of the conditioning and decoding path, printing the shape
and role of each intermediate, including the K+M token stack fed to the
frozen backbone.
"""

import numpy as np

from papnf.data import make_windows
from papnf.encoder import build_llm_input
from papnf.flow import flow_forward, flow_invert, flow_log_det
from papnf.model import ModelConfig, PapNfModel
from papnf.seeding import substream
from papnf.synthetic import ar1_seasonal
from papnf.tensor import Tensor

cfg = ModelConfig(
    lookback=48, horizon=12, channels=2, patch_len=12, d_n=16, d_c=12, d_h=20,
    d_u=6, t_flow=3, k_prefix=4, recon_hidden=32, hyper_hidden=12,
    backbone={"n_layers": 2, "n_heads": 2, "d": 24, "ffn_width": 48, "max_len": 12},
)
model = PapNfModel(cfg, seed=0)
window = make_windows(ar1_seasonal(80, channels=2, period=24, seed=2), 48, 12)[0]
x_std = window.x_std

print(f"config: L={cfg.lookback} H={cfg.horizon} C={cfg.channels} "
      f"patch={cfg.patch_len} -> M={cfg.n_patches} patches, K={cfg.k_prefix} prefix rows")

z = model.encoder.encode_global(x_std)
print(f"\n1. global encoding z:          {z.shape}  (whole look-back, one row)")

patches = model.encoder.encode_patches(x_std)
print(f"2. patch embeddings:           {patches.shape}  (M patches x d_n)")

e_rep = model.reprogrammer.reprogram(patches)
print(f"3. reprogrammed tokens E_rep:  {e_rep.shape}  (now in backbone space d={cfg.backbone.d})")

x_llm = build_llm_input(model.prefix, e_rep)
print(f"4. token stack [P; E_rep]:     {x_llm.shape}  (N = K+M = {cfg.k_prefix}+{cfg.n_patches})")

hidden = model.backbone.forward(x_llm)
print(f"5. frozen backbone hidden:     {hidden.shape}  (hash {model.backbone.weight_hash()[:12]}...)")

from papnf.backbone import extract_context

c = extract_context(hidden, model.ctx_proj)
print(f"6. pooled context c:           {c.shape}")

h = model.fusion.fuse(z, c)
print(f"7. fused condition h:          {h.shape}")

rng = substream(0, "demo", "latents")
u0 = rng.standard_normal((5, cfg.d_u))
u_T = flow_forward(Tensor(u0), h, model.flow_layers)
print(f"8. flow transport u0 -> u_T:   {u0.shape} -> {u_T.shape}  ({cfg.t_flow} planar layers)")

pred = model.recon.reconstruct(u_T, h)
print(f"9. reconstruction:             {pred.shape}  (S samples x H*C, standardized)")

trajs = window.scaler.destandardize(
    pred.data.reshape(5, cfg.horizon, cfg.channels)
)
print(f"10. destandardized ensemble:   {trajs.shape}  (S x H x C on the raw scale)")

# The flow is invertible: pull all five transported rows back at once.
u_back = flow_invert(u_T.data, h.data, model.flow_layers)
print(f"\nflow round trip max error: {np.max(np.abs(u_back - u0)):.2e}")
log_det = flow_log_det(u0, h.data, model.flow_layers)
print(f"per-row log|det J|:         {np.array2string(log_det, precision=4)}")
