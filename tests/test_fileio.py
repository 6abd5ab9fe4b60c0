"""Text artifact I/O: encoding, error mapping, and its single home."""

import re
from pathlib import Path

import pytest

import drt
from drt import BadHeader, BadParams, IoFailure
from drt.fileio import read_json, read_text, write_csv, write_json, write_text

_RAW_TEXT_IO = re.compile(
    r"json\.dumps?\(|json\.loads?\(|\bopen\(|\.write_text\(|\.read_text\(")


def test_only_fileio_opens_or_encodes_text():
    package = Path(drt.__file__).parent
    hits = sorted({path.name for path in package.glob("*.py")
                   if _RAW_TEXT_IO.search(path.read_text(encoding="utf-8"))})
    assert hits == ["fileio.py"]


def test_json_encoding(tmp_path):
    path = tmp_path / "a.json"
    write_json(path, {"b": 1, "a": [1, "é"]})
    assert path.read_bytes() == (
        b'{\n  "a": [\n    1,\n    "\\u00e9"\n  ],\n  "b": 1\n}\n')
    assert read_json(path) == {"a": [1, "é"], "b": 1}


def test_csv_encoding(tmp_path):
    path = tmp_path / "a.csv"
    write_csv(path, [["x", "y"], [1, "a,b"]])
    assert path.read_bytes() == b'x,y\n1,"a,b"\n'


def test_text_round_trip_keeps_lf(tmp_path):
    path = tmp_path / "a.md"
    write_text(path, "# t\n\nµm\n")
    assert path.read_bytes() == "# t\n\nµm\n".encode("utf-8")
    path.write_bytes(b"a\r\nb\rc\n")
    assert read_text(path) == "a\nb\nc\n"


def test_bad_json_raises_the_callers_error(tmp_path):
    path = tmp_path / "a.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(BadParams):
        read_json(path)
    with pytest.raises(BadHeader):
        read_json(path, BadHeader)


def test_non_utf8_text_raises_the_callers_error(tmp_path):
    path = tmp_path / "a.csv"
    path.write_bytes(b"x,y\n\xff,1\n")
    with pytest.raises(BadParams, match="a.csv"):
        read_text(path)
    with pytest.raises(BadHeader):
        read_text(path, BadHeader)
    with pytest.raises(BadHeader):
        read_json(path, BadHeader)


def test_os_errors_become_io_failure(tmp_path):
    missing = tmp_path / "missing" / "a.json"
    with pytest.raises(IoFailure):
        read_text(missing)
    with pytest.raises(IoFailure):
        read_json(missing, BadHeader)
    with pytest.raises(IoFailure):
        write_json(missing, {})
    with pytest.raises(IoFailure):
        write_csv(missing, [["x"]])


def test_unencodable_payload_leaves_no_file(tmp_path):
    path = tmp_path / "a.json"
    with pytest.raises(TypeError):
        write_json(path, {"x": object()})
    assert not path.exists()
