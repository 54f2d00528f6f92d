"""Smoke tests: every demo runs end to end; the fan-chart demo writes into a given directory."""

import csv
import os
import runpy
import sys
import xml.etree.ElementTree as ET

import pytest

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")
DEMO = os.path.join(DEMOS, "06_fan_chart.py")
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
