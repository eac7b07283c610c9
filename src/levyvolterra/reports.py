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
import tempfile
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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
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


def write_csv(path, header, rows):
    """RFC-4180 CSV with a mandatory header row and repr-precision reals."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    atomic_write_text(path, buf.getvalue())


def series_csv(path, columns: dict):
    """Write named equal-length columns as CSV."""
    names = list(columns)
    arrays = [np.asarray(columns[name]) for name in names]
    rows = zip(*arrays)
    write_csv(path, names, rows)
