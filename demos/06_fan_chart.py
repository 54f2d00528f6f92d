"""Demo: fan-chart rendering.

Trains a small model, samples one window's forecast ensemble, and writes a
static SVG fan chart (history, nested central intervals, median, truth),
plus the per-point quantile CSV of the whole test split.

    python demos/06_fan_chart.py [OUT_DIR]

OUT_DIR defaults to demos/out next to this file.
"""

import os
import sys

from papnf.data import SplitSpec, make_windows, split_series
from papnf.evaluate import evaluate_split, write_fan_chart_svg, write_quantiles_csv
from papnf.model import ModelConfig, PapNfModel
from papnf.seeding import derive_seed
from papnf.synthetic import ar1_seasonal
from papnf.train import TrainConfig, fit

series = ar1_seasonal(600, period=24, seed=21)
train_s, val_s, test_s = split_series(series, SplitSpec(360, 120, 120))

cfg = ModelConfig(
    lookback=48, horizon=24, channels=1, patch_len=12, d_n=16, d_c=12, d_h=24,
    d_u=6, t_flow=3, k_prefix=3, recon_hidden=32, hyper_hidden=12,
    backbone={"n_layers": 1, "n_heads": 2, "d": 16, "ffn_width": 32, "max_len": 8},
)
train_w = make_windows(train_s, cfg.lookback, cfg.horizon)
val_w = make_windows(val_s, cfg.lookback, cfg.horizon)
test_w = make_windows(test_s, cfg.lookback, cfg.horizon)

model = PapNfModel(cfg, seed=derive_seed(0, "init"))
fit(model, train_w, val_w, TrainConfig(model=cfg, epochs=6, seed=0))

report, ensembles = evaluate_split(model, test_w, n_samples=200, seed=0)

out_dir = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "out")
os.makedirs(out_dir, exist_ok=True)
svg_path = os.path.join(out_dir, "fan_chart.svg")
write_fan_chart_svg(svg_path, test_w[10], ensembles[10])
csv_path = os.path.join(out_dir, "quantiles.csv")
write_quantiles_csv(csv_path, test_w, ensembles)

print(f"coverage@90 on the test split: {report.coverage['0.9']:.3f}")
print(f"wrote {svg_path}")
print(f"wrote {csv_path}")
print("open the SVG in any browser: shaded bands are the 95/90/80% central")
print("intervals, the solid line is the sample median, the dashed line the truth.")
