"""Stream reports as CSV.

One row per online instance, in the order the stream was processed. The
column order is fixed so downstream tooling can rely on it:

    instance_idx, ade, fde, rr, loss, grad_norm, health, pre_norm, clipped,
    e_1..e_L, alpha_1..alpha_L

``pre_norm`` and ``clipped`` (1 or 0) came later: a header without them
is the earlier layout, which still reads, with None in both fields.
Cells that do not apply (no base metrics, plain strategy, the gradient
norm of a step whose loss was not finite) are written as empty strings and
read back as None. Floats are rendered with ``repr`` so a write/read round
trip reproduces the exact values.
"""

from __future__ import annotations

import csv

from .errors import ParseError
from .runtime import StreamRecord

# The fixed columns of the earlier layout, a prefix of the current one's.
LEGACY_COLUMNS = ("instance_idx", "ade", "fde", "rr", "loss", "grad_norm", "health")
FIXED_COLUMNS = LEGACY_COLUMNS + ("pre_norm", "clipped")


def stream_header(layers: int, fixed: tuple[str, ...] = FIXED_COLUMNS) -> list[str]:
    head = list(fixed)
    head += [f"e_{i}" for i in range(1, layers + 1)]
    head += [f"alpha_{i}" for i in range(1, layers + 1)]
    return head


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _vector_cells(values, layers: int) -> list[str]:
    if values is None:
        return [""] * layers
    cells = [_cell(float(v)) for v in values]
    if len(cells) != layers:
        raise ParseError(f"expected {layers} expert values, got {len(cells)}")
    return cells


def write_stream_csv(records: list[StreamRecord], path: str, layers: int) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(stream_header(layers))
        for rec in records:
            row = [str(rec.instance_idx), _cell(rec.ade), _cell(rec.fde), _cell(rec.rr),
                   _cell(rec.loss), _cell(rec.grad_norm), rec.health,
                   _cell(rec.pre_norm), _cell(rec.clipped)]
            row += _vector_cells(rec.expert, layers)
            row += _vector_cells(rec.alpha, layers)
            writer.writerow(row)


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


def read_stream_csv(path: str) -> list[StreamRecord]:
    """Read a stream report, in either layout, back into records; raises
    ParseError with row numbers."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError(f"{path}: empty report, expected a header row")
    header = rows[0]
    fixed = FIXED_COLUMNS if tuple(header[:len(FIXED_COLUMNS)]) == FIXED_COLUMNS \
        else LEGACY_COLUMNS
    if tuple(header[:len(fixed)]) != fixed:
        raise ParseError(f"{path}: unexpected header {header[:len(fixed)]}")
    extra = header[len(fixed):]
    if len(extra) % 2 != 0:
        raise ParseError(f"{path}: expert and alpha column counts differ")
    layers = len(extra) // 2
    expected = stream_header(layers, fixed)
    if header != expected:
        raise ParseError(f"{path}: header does not match the fixed layout")

    records = []
    for idx, row in enumerate(rows[1:], start=2):
        if len(row) != len(expected):
            raise ParseError(f"row {idx}: expected {len(expected)} cells, got {len(row)}")
        cells = dict(zip(expected, row))
        expert_cells = [cells[f"e_{i}"] for i in range(1, layers + 1)]
        alpha_cells = [cells[f"alpha_{i}"] for i in range(1, layers + 1)]

        def vector(parts, names):
            if all(c == "" for c in parts):
                return None
            return tuple(_parse_float(c, idx, n) for c, n in zip(parts, names))

        records.append(StreamRecord(
            instance_idx=_parse_index(cells["instance_idx"], idx, "instance_idx"),
            ade=_parse_float(cells["ade"], idx, "ade"),
            fde=_parse_float(cells["fde"], idx, "fde"),
            rr=_parse_optional(cells["rr"], idx, "rr"),
            loss=_parse_float(cells["loss"], idx, "loss"),
            grad_norm=_parse_optional(cells["grad_norm"], idx, "grad_norm"),
            health=cells["health"],
            expert=vector(expert_cells, [f"e_{i}" for i in range(1, layers + 1)]),
            alpha=vector(alpha_cells, [f"alpha_{i}" for i in range(1, layers + 1)]),
            pre_norm=_parse_optional(cells.get("pre_norm", ""), idx, "pre_norm"),
            clipped=_parse_flag(cells.get("clipped", ""), idx, "clipped"),
        ))
    return records


def write_loss_csv(loss_log: list[float], path: str) -> None:
    """One row per epoch: epoch index and the mean training loss."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        for epoch, loss in enumerate(loss_log):
            writer.writerow([str(epoch), repr(float(loss))])
