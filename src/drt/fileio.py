"""Text artifact I/O: one encoding and one error mapping for every file.

Every JSON, CSV, SVG and Markdown artifact is UTF-8 with "\\n" line ends
on every platform. JSON is written with sorted keys, a two-space indent
and a trailing newline, so equal payloads give byte-identical files. A
writer serialises its payload before it opens the file, so a payload that
cannot be encoded leaves no truncated file behind. A failed read or write
raises IoFailure; bytes that are not UTF-8, or text that is not JSON, raise
the caller's input error.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from .errors import BadParams, IoFailure


def read_text(path, error: type[Exception] = BadParams) -> str:
    """The text at path; bytes that are not UTF-8 raise ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def read_json(path, error: type[Exception] = BadParams):
    """The JSON document at path; text that is not UTF-8 JSON raises ``error``."""
    text = read_text(path, error)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path} is not valid JSON: {exc}") from exc


def write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_json(path, payload) -> None:
    write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_csv(path, rows) -> None:
    """Write an iterable of rows, the header among them, as CSV."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    write_text(path, buf.getvalue())
