"""Smoke tests: every demo runs end to end; the fan-chart demo writes into a given directory."""

import csv
import os
import runpy
import sys
import xml.etree.ElementTree as ET

import pytest

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")
DEMO = os.path.join(DEMOS, "06_fan_chart.py")
TRACKED = os.path.join(DEMOS, "out")
TEST_WINDOWS = 120 - 48 - 24 + 1  # test split length - lookback - horizon + 1
HORIZON = 24


def test_fan_chart_demo_writes_csv_and_svg(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [DEMO, str(tmp_path)])
    runpy.run_path(DEMO, run_name="__main__")
    assert str(tmp_path / "quantiles.csv") in capsys.readouterr().out
    with open(tmp_path / "quantiles.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "window_id" and rows[0][-1] == "truth"
    assert len(rows) == 1 + TEST_WINDOWS * HORIZON
    root = ET.parse(tmp_path / "fan_chart.svg").getroot()
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert len(root.findall("{http://www.w3.org/2000/svg}polygon")) == 3


def test_fan_chart_demo_reproduces_the_tracked_artifacts(tmp_path, monkeypatch, capsys):
    # demos/out is committed; a change that moves the model's outputs must
    # regenerate it. Values may move at rounding level, the layout may not.
    monkeypatch.setattr(sys, "argv", [DEMO, str(tmp_path)])
    runpy.run_path(DEMO, run_name="__main__")
    capsys.readouterr()
    with open(os.path.join(TRACKED, "fan_chart.svg"), "rb") as fh:
        assert (tmp_path / "fan_chart.svg").read_bytes() == fh.read()
    with open(os.path.join(TRACKED, "quantiles.csv"), newline="") as fh:
        want = list(csv.reader(fh))
    with open(tmp_path / "quantiles.csv", newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == want[0] and len(got) == len(want)
    for got_row, want_row in zip(got[1:], want[1:]):
        assert got_row[:3] == want_row[:3] and len(got_row) == len(want_row)
        for g, w in zip(got_row[3:], want_row[3:]):
            assert abs(float(g) - float(w)) <= 1e-12


@pytest.mark.parametrize(
    "name",
    [
        "01_tensors_and_gradients.py",
        "02_windows_and_scaling.py",
        "03_pipeline_anatomy.py",
        "04_training_on_synthetic.py",
        "05_probabilistic_evaluation.py",
    ],
)
def test_demo_runs(name, monkeypatch, capsys):
    path = os.path.join(DEMOS, name)
    monkeypatch.setattr(sys, "argv", [path])
    runpy.run_path(path, run_name="__main__")
    assert capsys.readouterr().out
