"""Flat-file formats: CSV sample tables and JSON results.

CSV files carry a header row and comma-separated values (optionally in
double quotes, no comment lines); discrete samples are small nonnegative
integers, linear samples are decimal reals.  Blank lines and non-finite
values are rejected with the line number.  Written rows end in CRLF and
floats are written in shortest round-trip form.  Bodies whose every
field is one digit (what the simulators and ``synthesize`` write, and
binary data generally) are read and written by a byte path: the file's
bytes are viewed as fixed-width rows and checked byte by byte, and a
written body is one uint8 buffer.  Any other body takes the general
parser, so the grammar, the values and the row-numbered messages are the
same either way.  JSON is written with
full round-trip float precision (shortest representation recovering the
exact double, up to 17 significant digits), so written files read back
bit-exactly.  Every ``from_json_dict`` reads through the ``_json_*`` helpers:
numbers only, JSON integers for counts, regular arrays, no unknown fields.
"""

from __future__ import annotations

import csv
import itertools
import json
import locale
import math
import warnings
from contextlib import contextmanager
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Any, Collection, Iterator, NoReturn

import numpy as np

from .errors import ValidationError


def _to_jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()  # Python floats, ints and bools, nested as the array
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
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not {exc.encoding} text: {exc.reason}") from None


@contextmanager
def _json_object(what: str, data: object, known: Collection[str]) -> Iterator[None]:
    """Read ``data``, a JSON object with no field outside ``known``, in this block.

    A KeyError in the block becomes "malformed {what} JSON: missing field 'k'"
    and a TypeError, ValueError or OverflowError "malformed {what} JSON: ...";
    a ValidationError (a nested document's or a constructor's) passes through.
    """
    try:
        if not isinstance(data, dict):
            raise TypeError(f"expected an object, got {type(data).__name__}")
        unknown = next((name for name in data if name not in known), None)
        if unknown is not None:
            raise ValueError(f"unknown field {unknown!r}")
        yield
    except ValidationError:
        raise
    except KeyError as exc:
        raise ValidationError(f"malformed {what} JSON: missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed {what} JSON: {exc}") from exc


def _json_array(value: object, name: str) -> np.ndarray:
    """Regular nested lists of JSON numbers as a float64 array.  Strings, booleans,
    nulls and objects raise TypeError (``np.asarray`` reads [0.5, true] as
    [0.5, 1.0]), ragged lists ValueError, integers beyond float64 OverflowError."""
    arr = np.asarray(value)
    leaves: Any = [value]
    for _ in range(arr.ndim):
        leaves = itertools.chain.from_iterable(leaves)
    others = set(map(type, leaves)) - {int, float}
    if others:
        kind = min(t.__name__ for t in others)
        raise TypeError(f"{name} must be nested lists of numbers, got {kind}")
    return arr.astype(float, copy=False)


def _json_fields(cls: type, data: object, what: str, integers: Collection[str] = ()) -> dict:
    """Keyword arguments for the dataclass ``cls`` from a JSON object of numbers:
    floats, JSON integers for the fields named in ``integers``; ``null`` leaves
    out a field whose default is None.  Faults are named as by _json_object."""
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    with _json_object(what, data, known):
        for name, f in known.items():
            if f.default is MISSING and name not in data:
                raise KeyError(name)
        for name, value in data.items():
            if value is None and known[name].default is None:
                continue
            kinds = (int,) if name in integers else (int, float)
            if type(value) not in kinds:
                kind = "an integer" if name in integers else "a number"
                raise TypeError(f"{name} must be {kind}, got {type(value).__name__}")
            kwargs[name] = value if name in integers else float(value)
    return kwargs


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
            n_rows = _count_lines(path) - 1  # decodes the whole file
        except StopIteration:
            raise ValidationError(f"{path} is empty") from None
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path} is not {exc.encoding} text: {exc.reason}") from None
        width = len(header)
        if width == 0:
            raise ValidationError(f"{path} has an empty header")
        names = [h.strip() for h in header]
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


def read_integer_samples(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Header and int64 data matrix from a discrete sample CSV.

    The same result, and the same errors, as
    ``integer_samples(*read_samples_csv(path), path)``, which is what any
    file outside :func:`_single_digit_table`'s fast path goes through.
    """
    with open(path, "rb") as fh:
        parsed = _single_digit_table(fh.read())
    if parsed is None:
        header, data = read_samples_csv(path)
        return header, integer_samples(header, data, path)
    return parsed


def _single_digit_table(raw: bytes) -> tuple[list[str], np.ndarray] | None:
    """Header and int64 matrix of a CSV whose body fields are all one digit.

    The header line must hold no quote and no CR other than a CRLF end;
    it goes through the same ``csv.reader`` and strip as in
    :func:`read_samples_csv`.  Every body row must be ``d,d,...,d`` with
    k = ``len(header)`` digits, and all rows must end in LF or all in
    CRLF (the last one may lack its end), so the body is a view of
    fixed-width rows.  Returns None for anything else, which
    :func:`read_integer_samples` then parses in full.
    """
    end = raw.find(b"\n")
    line = raw[:end].removesuffix(b"\r") if end >= 0 else raw
    if b'"' in line or b"\r" in line:
        return None
    try:
        text = line.decode(locale.getpreferredencoding(False))
    except UnicodeDecodeError:
        return None
    header = next(csv.reader([text + "\n"]))
    k = len(header)
    if k == 0:
        return None
    names = [h.strip() for h in header]
    start = len(raw) if end < 0 else end + 1
    if start == len(raw):
        return names, np.empty((0, k), dtype=np.int64)
    # the first row's end fixes the row width; a float body fails here
    probe = raw[start + 2 * k - 1 : start + 2 * k + 1]
    if probe == b"\r\n":
        term = b"\r\n"
    elif probe[:1] in (b"\n", b""):
        term = b"\n"
    else:
        return None
    if not raw.endswith(b"\n"):
        raw += term
    width = 2 * k - 1 + len(term)
    n, rest = divmod(len(raw) - start, width)
    if rest:
        return None
    rows = np.frombuffer(raw, dtype=np.uint8, offset=start).reshape(n, width)
    digits = rows[:, 0 : 2 * k : 2] - np.uint8(ord("0"))  # bytes below "0" wrap past 9
    after = np.frombuffer(b"," * (k - 1) + term[:1], dtype=np.uint8)
    if digits.max() > 9 or not (rows[:, 1 : 2 * k : 2] == after).all():
        return None
    if len(term) == 2 and not (rows[:, -1] == ord("\n")).all():
        return None
    return names, digits.astype(np.int64)


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
    Integer data whose values are all in 0..9 is written instead as one
    uint8 buffer of digits, commas and CRLFs, which gives the same bytes.
    """
    data = np.asarray(data)
    single_digit = (
        integer and data.dtype.kind in "biu" and data.size > 0
        and 0 <= data.min() and data.max() <= 9
    )
    row = ",".join(["%d" if integer else "%r"] * data.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        if single_digit:
            fh.flush()
            fh.buffer.write(_digit_rows(data))
            return
        for start in range(0, len(data), _WRITE_BLOCK):
            block = data[start : start + _WRITE_BLOCK]
            if not integer:
                block = block.astype(float, copy=False)
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _digit_rows(data: np.ndarray) -> np.ndarray:
    """CSV body of an (n, k) matrix of values in 0..9 as an (n, 2k + 1)
    uint8 buffer: each value's digit followed by a comma, the last by CRLF."""
    n, k = data.shape
    buf = np.empty((n, 2 * k + 1), dtype=np.uint8)
    np.add(data, ord("0"), out=buf[:, 0 : 2 * k : 2], casting="unsafe")
    buf[:, 1 : 2 * k - 1 : 2] = ord(",")
    buf[:, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
    return buf
