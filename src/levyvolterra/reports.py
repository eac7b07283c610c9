"""Deterministic artifact emission: JSON reports and RFC-4180 CSV series.

Reports never contain timestamps (run metadata lives in a separate file),
keys are sorted, and floats round-trip at full precision, so identical runs
produce byte-identical artifacts.  Writes are atomic: temp file + rename.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path

import numpy as np


def to_jsonable(obj):
    """Recursively convert numpy/complex values into plain JSON types."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def atomic_write_text(path, text: str):
    """Write text to a temp file beside path and rename it there, mode 0o666 & ~umask like open."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload: dict):
    """Strict RFC 8259 JSON: a NaN or infinity raises instead of being written."""
    text = json.dumps(to_jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
    atomic_write_text(path, text + "\n")


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_rows(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def write_csv(path, header, rows):
    """RFC-4180 CSV with a mandatory header row and repr-precision reals."""
    _write_rows(path, header, ([_cell(v) for v in row] for row in rows))


def series_csv(path, columns: dict):
    """Write named equal-length columns as CSV, the same bytes as write_csv.

    Each column goes through tolist(), whose Python floats the csv module
    writes by their repr, as _cell does, and whose ints, bools and strings
    it writes by str.
    """
    _write_rows(path, list(columns), zip(*(np.asarray(c).tolist() for c in columns.values())))
