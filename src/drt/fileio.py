"""Text artifact I/O: one encoding, one framing and one error mapping.

Every JSON, CSV, SVG and Markdown artifact is UTF-8 with "\\n" line ends
on every platform. JSON is written with sorted keys, a two-space indent
and a trailing newline, so equal payloads give byte-identical files; a
payload holding NaN or an infinity, which JSON has not, raises ValueError. A
writer serialises its payload before it opens the file, so a payload that
cannot be encoded leaves no truncated file behind. A failed read or write
raises IoFailure; bytes that are not UTF-8, text that is not JSON, or a
document of the wrong top-level type raise the caller's input error. Every
JSON reader takes each field through ``json_typed`` or ``json_array``, the
one rule for JSON values. CSV inputs are parsed here too, each field as
the type its reader names, so every reader shares one header rule, one
``path:row`` error form, and json_typed's rule for every number.
Binary volumes are written through ``open_replacement``, the one place
that makes a temporary file and moves it over its target.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from pathlib import Path

from .errors import BadParams, IoFailure

_JSON_NAMES = {dict: "object", list: "array"}
_JSON_KINDS = {int: "integer", float: "number", bool: "boolean",
               str: "string", **_JSON_NAMES}


def read_text(path, error: type[Exception] = BadParams) -> str:
    """The text at path; bytes that are not UTF-8 raise ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def read_json(path, error: type[Exception] = BadParams,
              kind: type | None = None):
    """The JSON document at path.

    Text that is not UTF-8 JSON, or a top-level value that is not of
    ``kind`` (dict or list) when one is given, raises ``error``.
    """
    text = read_text(path, error)
    try:
        value = json.loads(text)
    except ValueError as exc:  # an integer of over 4300 digits too
        raise error(f"{path} is not valid JSON: {exc}") from exc
    if kind is not None and not isinstance(value, kind):
        raise error(f"{path} must hold a JSON {_JSON_NAMES[kind]}")
    return value


def json_typed(value, kind: type, name: str):
    """``value`` itself when JSON gave it as ``kind``; float means a number.

    Anything else, which int(), float() or bool() would truncate, parse or
    flip, raises TypeError naming ``name``; a bool is no int or number here.
    A number must be finite: JSON has none other, yet Python's json reads
    ``NaN``, ``Infinity`` and ``1e400``, and float() overflows on integers
    beyond about 1.8e308.
    """
    if type(value) not in ((int, float) if kind is float else (kind,)):
        raise TypeError(f"{name} must be a JSON {_JSON_KINDS[kind]}, "
                        f"got {value!r}")
    if kind is float:
        try:
            if math.isfinite(value):
                return value
        except OverflowError:
            value = f"an integer of {value.bit_length()} bits"
        raise TypeError(f"{name} must be a JSON number that fits a float, "
                        f"got {value}")
    return value


def json_array(value, kind: type, name: str) -> list:
    """``value`` itself when JSON gave it as an array of ``kind`` entries."""
    for item in json_typed(value, list, name):
        json_typed(item, kind, f"{name} entry")
    return value


def read_csv(path, layout: str, kinds: tuple[type, ...]):
    """Yield ``(where, values)`` for each non-blank CSV row at path.

    ``layout`` names the fields, the optional trailing ones in brackets, as
    in ``"k,p_cd,p_cu,s_wi[,phi[,class]]"``. ``kinds`` gives each field's
    type: int() of the text, float() under json_typed's finite-number rule,
    or the stripped str; an optional field missing or blank reads as None.
    A row of too few or too many fields, or a field that does not parse,
    raises BadParams naming ``where``: ``path:row``, rows counted from 1
    with blank ones included. A leading byte-order mark is dropped. The
    first non-blank row is a header, and skipped, when none of its fields
    parses as a number; every data row holds a number.
    """
    names = layout.replace("[", "").replace("]", "").split(",")
    required = layout.split("[", 1)[0].count(",") + 1
    text = read_text(path).removeprefix("\ufeff")
    header_checked = False
    for row_no, fields in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not fields:
            continue
        if not header_checked:
            header_checked = True
            if not any(map(_is_number, fields)):
                continue
        where = f"{path}:{row_no}"
        if not required <= len(fields) <= len(names):
            raise BadParams(f"{where}: expected {layout}, "
                            f"got {len(fields)} fields")
        fields += [""] * (len(names) - len(fields))
        yield where, [None if i >= required and not field.strip()
                      else _csv_value(field, kind, name, where)
                      for i, (field, kind, name)
                      in enumerate(zip(fields, kinds, names))]


def _csv_value(field: str, kind: type, name: str, where: str):
    if kind is str:
        return field.strip()
    try:
        return json_typed(kind(field), kind, name)
    except ValueError as exc:
        raise BadParams(f"{where}: non-{_JSON_KINDS[kind]} field {name}: "
                        f"{field!r}") from exc
    except TypeError as exc:
        raise BadParams(f"{where}: {exc}") from exc


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_json(path, payload) -> None:
    write_text(path, json.dumps(payload, sort_keys=True, indent=2,
                                allow_nan=False) + "\n")


def write_csv(path, rows) -> None:
    """Write an iterable of rows, the header among them, as CSV."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    write_text(path, buf.getvalue())


@contextlib.contextmanager
def open_replacement(path):
    """A binary file open for writing at a temporary path beside ``path``,
    which replaces ``path`` when the block ends cleanly, so that ``path``
    never holds a partial file. When the block raises, the temporary file
    is deleted and ``path`` is left as it was, and the error passes
    through. A symlink is followed, so the file it points to is the one
    replaced; the new file has the default mode and no other hard links,
    and its directory must be writable. An OSError in opening, closing or
    replacing raises IoFailure naming ``path``."""
    target = Path(path).resolve()
    tmp = target.with_name(f"{target.name}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "xb")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    try:
        yield fh
    except BaseException:
        _discard(fh, tmp)
        raise
    try:
        fh.close()
        os.replace(tmp, target)
    except OSError as exc:
        _discard(fh, tmp)
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _discard(fh, tmp: Path) -> None:
    """Close fh and delete its file, tmp, whatever fails on the way."""
    with contextlib.suppress(OSError):
        fh.close()
    with contextlib.suppress(OSError):
        tmp.unlink()
