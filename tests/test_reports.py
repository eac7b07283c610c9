import numpy as np

from levyvolterra.reports import series_csv, write_csv


def test_series_csv_writes_the_row_path_bytes(tmp_path):
    n = 7
    columns = {
        "f64": np.array([0.1, -0.0, 1e-300, 2.5e17, np.pi, -1 / 3, 1.0]),
        "f32": np.linspace(-1.0, 1.0, n, dtype=np.float32) / np.float32(3.0),
        "int": np.arange(-3, n - 3),
        "bool": np.arange(n) % 2 == 0,
        "str": ["stieltjes", "a,b", 'say "x"', "", "left", "right", "midpoint"],
    }
    series_csv(tmp_path / "series.csv", columns)
    write_csv(tmp_path / "rows.csv", list(columns),
              zip(*(np.asarray(c) for c in columns.values())))
    data = (tmp_path / "series.csv").read_bytes()
    assert data == (tmp_path / "rows.csv").read_bytes()
    assert data.count(b"\r\n") == n + 1
