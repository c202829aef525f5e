"""Flat-file formats: CSV sample tables and JSON results.

CSV files carry a header row and comma-separated values (optionally in
double quotes, no comment lines); discrete samples are small nonnegative
integers, linear samples are decimal reals.  Blank lines and non-finite
values are rejected with the line number.  Written rows end in CRLF and
floats are written in shortest round-trip form.  JSON is written with
full round-trip float precision (shortest representation recovering the
exact double, up to 17 significant digits), so written files read back
bit-exactly.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from pathlib import Path
from typing import Any, NoReturn

import numpy as np

from .errors import ValidationError


def _to_jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def dump_json(obj: Any, path: str | Path | None) -> str:
    """Serialize to JSON; write to ``path`` when given, return the text."""
    text = json.dumps(_to_jsonable(obj), indent=2) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def load_json(path: str | Path) -> Any:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc


def read_samples_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Header and float data matrix from a sample CSV.

    The body is parsed by a single ``np.loadtxt`` call.  That call skips
    blank lines and takes its width from the first row, so the result must
    also have one row per data line, ``len(header)`` columns and only finite
    values; otherwise the file is rescanned to name the first bad line.
    """
    with open(path) as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise ValidationError(f"{path} is empty") from None
        width = len(header)
        if width == 0:
            raise ValidationError(f"{path} has an empty header")
        names = [h.strip() for h in header]
        n_rows = _count_lines(path) - 1
        if n_rows == 0:
            return names, np.empty((0, width))
        try:
            with warnings.catch_warnings():
                # the only warning is "input contained no data": all lines blank
                warnings.simplefilter("error", UserWarning)
                data = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
        except (ValueError, UserWarning):
            data = None
    if data is None or data.shape != (n_rows, width) or not np.isfinite(data).all():
        _raise_first_bad_row(path, width)
    return names, data


def _count_lines(path: str | Path) -> int:
    """Number of lines in a text file, a last line without a newline included."""
    lines, last = 0, "\n"
    with open(path) as fh:
        for chunk in iter(lambda: fh.read(1 << 20), ""):
            lines += chunk.count("\n")
            last = chunk[-1]
    return lines + (last != "\n")


def _raise_first_bad_row(path: str | Path, width: int) -> NoReturn:
    """Raise the ValidationError naming the first malformed line of ``path``.

    Runs only after :func:`read_samples_csv` has rejected the parsed array.
    Fields are checked against the grammar ``np.loadtxt`` applies: what
    ``float()`` accepts, except non-ASCII text and ``_`` digit separators.
    """
    with open(path) as fh:
        reader = csv.reader(fh)
        next(reader)
        line = reader.line_num
        for row in reader:
            where = f"{path} row {line + 1}"
            if reader.line_num != line + 1:
                raise ValidationError(f"{where}: quoted field spans lines")
            line = reader.line_num
            if len(row) != width:
                raise ValidationError(f"{where}: expected {width} fields, got {len(row)}")
            for field in row:
                try:
                    if "_" in field or not field.isascii():
                        raise ValueError(f"could not convert string to float: {field!r}")
                    value = float(field)
                except ValueError as exc:
                    raise ValidationError(f"{where}: {exc}") from None
                if not math.isfinite(value):
                    raise ValidationError(f"{where}: non-finite value {field!r}")
    raise ValidationError(f"{path}: rows do not form a {width}-column numeric table")


def integer_samples(header: list[str], data: np.ndarray, path: str | Path) -> np.ndarray:
    """Cast a float sample matrix to int64, rejecting non-integral, negative
    or too-large values."""
    rounded = np.rint(data)
    if data.size and (np.abs(data - rounded) > 1e-9).any():
        raise ValidationError(f"{path}: discrete samples must be integers")
    if data.size and rounded.min() < 0:
        raise ValidationError(f"{path}: discrete samples must be nonnegative")
    if data.size and rounded.max() >= 2.0**63:  # would not fit the int64 cast
        raise ValidationError(f"{path}: discrete samples must be below 2**63")
    return rounded.astype(np.int64)


#: rows formatted by one ``%`` operation and written by one call
_WRITE_BLOCK = 65536


def write_samples_csv(
    path: str | Path, header: list[str], data: np.ndarray, *, integer: bool = False
) -> None:
    """Write a header and sample rows as CSV with CRLF line ends.

    Values are written as ``%d`` when ``integer`` (truncating, like
    ``int``) and otherwise as floats in shortest round-trip form (``repr``),
    the same bytes ``csv.writer`` gives for those strings.  Rows are
    formatted a block at a time, so memory is bounded by the block size.
    """
    data = np.asarray(data)
    row = ",".join(["%d" if integer else "%r"] * data.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(data), _WRITE_BLOCK):
            block = data[start : start + _WRITE_BLOCK]
            if not integer:
                block = block.astype(float, copy=False)
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))
