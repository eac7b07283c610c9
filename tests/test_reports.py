import os
import stat

import numpy as np
import pytest

from levyvolterra.reports import series_csv, write_csv, write_json


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


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
def test_report_mode_is_a_plain_open_mode(tmp_path, umask):
    # a report, new or replacing one, gets the mode open(path, "w") gives
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
        write_json(tmp_path / "report.json", {"a": 1})
        write_json(tmp_path / "report.json", {"a": 2})
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "report.json").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode) == 0o666 & ~umask
    assert (tmp_path / "report.json").read_text() == '{\n  "a": 2\n}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.txt", "report.json"]
