"""CSV/JSON emission with byte-stable formatting.

Floats are written with ``repr`` (shortest round-trip), so identical results
produce identical bytes regardless of worker count or platform line timing.
CSV quoting follows RFC 4180 via the stdlib csv module.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Iterable, Sequence

from ..errors import ValidationError


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))   # shortest round-trip, numpy scalars included
    if value is None:
        return ""
    return str(value)


def write_csv(path, fieldnames: Sequence[str], rows: Iterable[dict],
              comment: str = "") -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([format_cell(row.get(k)) for k in fieldnames])


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


PLOT_COLUMNS = {
    "ids": ("E", "N_hat", "se"),
    "ladder": ("L", "p_hat", "halfwidth"),
}


def emit_plotdata(rows: Sequence[dict], kind: str, path) -> None:
    """Plot-ready (x, y, yerr) triples with a documented header.

    Empty input produces a header-only file.  Ordering follows the input,
    which callers keep sorted by the x column.
    """
    if kind not in PLOT_COLUMNS:
        raise ValidationError(f"unknown plot kind {kind!r}")
    cols = PLOT_COLUMNS[kind]
    write_csv(path, ("x", "y", "yerr"),
              [{"x": r[cols[0]], "y": r[cols[1]], "yerr": r[cols[2]]} for r in rows],
              comment=f"plot data kind={kind}: x={cols[0]} y={cols[1]} yerr={cols[2]}")
