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
    # a path with no jumps: a header and no row
    no_marks = np.zeros((0, 2))
    empty = {"time": np.zeros(0), "mark_1": no_marks[:, 0], "mark_2": no_marks[:, 1]}
    # complex values, one column each for the real and the imaginary parts
    z = np.array([0.5 - 0.25j, complex(-0.0, 1e-300), np.exp(1j * np.pi / 3) / 3, -2.5e17j])
    cases = [
        (columns, zip(*(np.asarray(c) for c in columns.values())), n),
        (empty, [], 0),
        ({"re": z.real, "im": z.imag}, [[c.real, c.imag] for c in z.tolist()], z.size),
    ]
    for case, (cols, rows, n_rows) in enumerate(cases):
        series_csv(tmp_path / f"series-{case}.csv", cols)
        write_csv(tmp_path / f"rows-{case}.csv", list(cols), rows)
        data = (tmp_path / f"series-{case}.csv").read_bytes()
        assert data == (tmp_path / f"rows-{case}.csv").read_bytes(), case
        assert data.count(b"\r\n") == n_rows + 1


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
