"""Data pipeline: CSV loading, splits, windows, per-window scaling."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from papnf import data as D
from papnf import synthetic


def test_load_csv_ett_fixture(tmp_path):
    series = synthetic.ett_like(200, seed=1)
    path = tmp_path / "fixture.csv"
    synthetic.write_csv(series, str(path))
    loaded = D.load_csv(str(path))
    assert loaded.channels == 7
    assert loaded.channel_names == synthetic.ETT_CHANNELS
    assert loaded.length == 200
    np.testing.assert_allclose(loaded.values, series.values, rtol=0, atol=0)
    assert loaded.timestamps[0] == "2016-07-01 00:00:00"


def test_load_csv_ragged_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,a,b\n2020,1,2\n2021,3\n")
    with pytest.raises(D.CsvFormatError, match="line 3"):
        D.load_csv(str(path))


def test_load_csv_non_numeric_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,a\n2020,1\n2021,oops\n")
    with pytest.raises(D.CsvFormatError, match="line 3"):
        D.load_csv(str(path))


def test_load_csv_line_numbers_count_quoted_newlines(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b'date,a\nx,"1\n"\ny,zz\n')
    with pytest.raises(D.CsvFormatError, match="line 4: non-numeric"):
        D.load_csv(str(path))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_csv_non_finite_reports_line_and_column(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"date,a,load\n2020,1,2\n2021,3,{cell}\n")
    with pytest.raises(D.CsvFormatError, match=r"line 3: non-finite .* column 'load'"):
        D.load_csv(str(path))


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(D.CsvFormatError, match="empty"):
        D.load_csv(str(path))


def test_load_csv_header_only(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("date,a\n")
    with pytest.raises(D.CsvFormatError, match="no data rows"):
        D.load_csv(str(path))


def test_load_csv_non_utf8_names_path_and_line(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"date,a\n2020,1\n\xff2021,2\n")
    with pytest.raises(D.CsvFormatError, match="line 3: not UTF-8") as err:
        D.load_csv(str(path))
    assert str(path) in str(err.value)


def test_load_csv_oversized_field_is_a_format_error(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("date,a\n2020," + "1" * 200_000 + "\n")
    with pytest.raises(D.CsvFormatError, match="line 2: field larger than field limit"):
        D.load_csv(str(path))


# arbitrary bytes rarely get past the header; mixing in CSV-shaped fragments
# reaches the row checks too
_csv_piece = st.sampled_from(
    [b"date,a,b\n", b"2020,1,2\n", b",", b"\n", b"\r", b'"', b"nan", b"1e400", b"\xff", b"\x00"]
) | st.binary(max_size=12)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(blob=st.binary(max_size=200) | st.lists(_csv_piece, max_size=16).map(b"".join))
def test_fuzz_load_csv_raises_only_its_own_error(tmp_path, blob):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(blob)
    try:
        series = D.load_csv(str(path))
    except D.CsvFormatError as err:
        assert str(path) in str(err)
        return
    assert series.values.ndim == 2 and np.isfinite(series.values).all()


def test_split_is_chronological_and_contiguous():
    series = synthetic.ar1_seasonal(120, channels=2, seed=2)
    spec = D.SplitSpec(70, 25, 25)
    train, val, test = D.split_series(series, spec)
    assert (train.length, val.length, test.length) == (70, 25, 25)
    np.testing.assert_array_equal(
        np.concatenate([train.values, val.values, test.values]), series.values
    )
    assert train.timestamps[-1] < val.timestamps[0] < test.timestamps[0]


def test_ett_hourly_preset_accepted_at_14400():
    series = synthetic.ar1_seasonal(14400, seed=3)
    train, val, test = D.split_series(series, D.ETT_HOURLY_SPLIT)
    assert (train.length, val.length, test.length) == (8640, 2880, 2880)


def test_split_too_short_is_an_error():
    series = synthetic.ar1_seasonal(100, seed=4)
    with pytest.raises(D.SplitError, match="102"):
        D.split_series(series, D.SplitSpec(50, 26, 26))


def test_window_count_example():
    assert D.window_count(100, 24, 8) == 69


@settings(max_examples=60, deadline=None)
@given(
    t=st.integers(1, 300),
    lookback=st.integers(1, 60),
    horizon=st.integers(1, 60),
)
def test_window_count_matches_enumeration(t, lookback, horizon):
    # brute-force enumeration of valid window start offsets, one row apart
    starts = [s for s in range(t) if s + lookback + horizon <= t]
    assert D.window_count(t, lookback, horizon) == len(starts)
    series = np.arange(float(t))[:, None]
    wins = D.make_windows(series, lookback, horizon)
    assert [int(w.x[0, 0]) for w in wins] == starts


def test_windows_cover_expected_slices():
    values = np.arange(20.0)[:, None]
    wins = D.make_windows(values, lookback=4, horizon=2)
    assert len(wins) == D.window_count(20, 4, 2) == 15
    w = wins[3]
    assert w.index == 3
    np.testing.assert_array_equal(w.x[:, 0], [3, 4, 5, 6])
    np.testing.assert_array_equal(w.y[:, 0], [7, 8])


def test_scaler_round_trip_and_population_std():
    rng = np.random.default_rng(5)
    x = rng.normal(loc=3.0, scale=2.5, size=(50, 3))
    sc = D.Scaler.fit(x)
    np.testing.assert_allclose(sc.std, x.std(axis=0), atol=0)  # 1/N convention
    v = rng.normal(size=(7, 3))
    np.testing.assert_allclose(sc.destandardize(sc.standardize(v)), v, atol=1e-9)


def test_scaler_constant_channel_uses_floor():
    x = np.ones((10, 2))
    x[:, 1] = np.arange(10)
    sc = D.Scaler.fit(x)
    assert sc.std[0] == D.STD_FLOOR
    out = sc.standardize(x)
    assert np.isfinite(out).all()


def test_window_standardization_uses_lookback_stats_only():
    values = np.concatenate([np.zeros((8, 1)), np.full((4, 1), 100.0)])
    wins = D.make_windows(values, lookback=8, horizon=4)
    w = wins[0]
    # horizon values are scaled by look-back stats, not their own
    assert w.scaler.mean[0] == 0.0
    assert np.all(w.y_std > 1.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_destandardize_then_metrics_equals_raw_metrics(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(16, 2)) * 3 + 1
    y = rng.normal(size=(6, 2))
    sc = D.Scaler.fit(x)
    pred_std = rng.normal(size=(6, 2))
    pred_raw = sc.destandardize(pred_std)
    mse_direct = float(np.mean((pred_raw - y) ** 2))
    mse_via = float(np.mean((sc.destandardize(pred_std) - y) ** 2))
    assert mse_direct == mse_via


def test_windows_digest_is_order_sensitive():
    values = np.arange(30.0)[:, None]
    wins = D.make_windows(values, 5, 2)
    assert D.windows_digest(wins) == D.windows_digest(list(wins))
    assert D.windows_digest(wins) != D.windows_digest(wins[::-1])
