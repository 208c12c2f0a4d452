"""Stream reports as CSV.

One row per online instance, in the order the stream was processed. The
column order is fixed so downstream tooling can rely on it:

    instance_idx, ade, fde, rr, loss, grad_norm, health, pre_norm, clipped,
    e_1..e_L, alpha_1..alpha_L

`COLUMNS` is the one statement of the fixed columns: each is named by the
`StreamRecord` field it holds and carries the parser for its cells, and
the header, the writer and the reader all walk it. The earlier layout is
its first seven columns, without ``pre_norm`` and ``clipped``; it still
reads, with None in both fields. Cells that do not apply (no base
metrics, plain strategy, the gradient norm of a step whose loss was not
finite) are written as empty strings and read back as None. Floats are
rendered with ``repr`` so a write/read round trip reproduces the exact
values.
"""

from __future__ import annotations

import csv

from .errors import ParseError
from .runtime import StreamRecord


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_float(cell: str, row: int, column: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ParseError(f"row {row}: column {column!r} is not a number: {cell!r}") from None


def _parse_optional(cell: str, row: int, column: str) -> float | None:
    return None if cell == "" else _parse_float(cell, row, column)


def _parse_index(cell: str, row: int, column: str) -> int:
    value = _parse_float(cell, row, column)
    if not value.is_integer():
        raise ParseError(f"row {row}: column {column!r} is not an integer: {cell!r}")
    return int(value)


def _parse_flag(cell: str, row: int, column: str) -> bool | None:
    if cell == "":
        return None
    if cell not in ("0", "1"):
        raise ParseError(f"row {row}: column {column!r} is not 0 or 1: {cell!r}")
    return cell == "1"


# The fixed columns, in order: (StreamRecord field, cell parser).
COLUMNS = (("instance_idx", _parse_index), ("ade", _parse_float), ("fde", _parse_float),
           ("rr", _parse_optional), ("loss", _parse_float), ("grad_norm", _parse_optional),
           ("health", lambda cell, row, column: cell), ("pre_norm", _parse_optional),
           ("clipped", _parse_flag))
LEGACY_WIDTH = 7  # the earlier layout's fixed columns are the first seven


def stream_header(layers: int, width: int = len(COLUMNS)) -> list[str]:
    head = [name for name, _ in COLUMNS[:width]]
    head += [f"e_{i}" for i in range(1, layers + 1)]
    head += [f"alpha_{i}" for i in range(1, layers + 1)]
    return head


def write_stream_csv(records: list[StreamRecord], path: str, layers: int) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(stream_header(layers))
        for rec in records:
            row = [_cell(getattr(rec, name)) for name, _ in COLUMNS]
            for values in (rec.expert, rec.alpha):
                cells = [""] * layers if values is None else [_cell(float(v)) for v in values]
                if len(cells) != layers:
                    raise ParseError(f"expected {layers} expert values, got {len(cells)}")
                row += cells
            writer.writerow(row)


def read_stream_csv(path: str) -> list[StreamRecord]:
    """Read a stream report, in either layout, back into records; raises
    ParseError with row numbers."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError(f"{path}: empty report, expected a header row")
    header = rows[0]
    width = len(COLUMNS) if header[:len(COLUMNS)] == stream_header(0) else LEGACY_WIDTH
    if header[:width] != stream_header(0, width):
        raise ParseError(f"{path}: unexpected header {header[:width]}")
    extra = header[width:]
    if len(extra) % 2 != 0:
        raise ParseError(f"{path}: expert and alpha column counts differ")
    layers = len(extra) // 2
    if header != stream_header(layers, width):
        raise ParseError(f"{path}: header does not match the fixed layout")

    records = []
    for idx, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(f"row {idx}: expected {len(header)} cells, got {len(row)}")
        fields = {name: parse(cell, idx, name) for (name, parse), cell in zip(COLUMNS[:width], row)}
        for field, start in (("expert", width), ("alpha", width + layers)):
            cells = row[start:start + layers]
            fields[field] = None if all(c == "" for c in cells) else tuple(
                _parse_float(c, idx, n) for c, n in zip(cells, header[start:start + layers]))
        records.append(StreamRecord(**fields))
    return records


def write_loss_csv(loss_log: list[float], path: str) -> None:
    """One row per epoch: epoch index and the mean training loss."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        for epoch, loss in enumerate(loss_log):
            writer.writerow([str(epoch), repr(float(loss))])
