"""Text artifact I/O: encoding, error mapping, and its single home."""

import ast
import inspect
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import drt
from drt import filters, forest, morphology, volume
from drt import (BadHeader, BadModelFile, BadParams, IoFailure, load_camo,
                 load_catalog, load_model, load_volume)
from drt.fileio import (read_csv, read_json, read_text, write_csv, write_json,
                        write_text)

_RAW_TEXT_IO = re.compile(
    r"json\.dumps?\(|json\.loads?\(|\bopen\(|\.write_text\(|\.read_text\("
    r"|\bimport csv\b")


def test_only_fileio_opens_or_encodes_text():
    package = Path(drt.__file__).parent
    hits = sorted({path.name for path in package.glob("*.py")
                   if _RAW_TEXT_IO.search(path.read_text(encoding="utf-8"))})
    assert hits == ["fileio.py"]


def test_only_binary_mask_tests_class_membership():
    # one reader of class sets: a second isin path would bring back a
    # second validation rule
    package = Path(drt.__file__).parent
    hits = {path.name: len(re.findall(r"\bisin\b", path.read_text(encoding="utf-8")))
            for path in package.glob("*.py")}
    assert {name: n for name, n in hits.items() if n} == {"morphology.py": 1}
    assert "np.isin(" in inspect.getsource(drt.binary_mask)


def test_only_two_callers_predict_bins():
    # one prediction core: each caller bins its own input, and a third
    # layer between the core and its callers would be one more to keep in step
    package = Path(drt.__file__).parent
    hits = {path.name: len(re.findall(r"\b_predict_bins\(",
                                      path.read_text(encoding="utf-8")))
            for path in package.glob("*.py")}
    # its def and its two calls
    assert {name: n for name, n in hits.items() if n} == {"forest.py": 3}
    for caller in (drt.ForestModel.predict_batch, drt.segment_volume):
        assert inspect.getsource(caller).count("._predict_bins(") == 1


def test_one_prediction_rule():
    # every tree goes through the same leaf-bitvector lines of the core: a
    # cell table, a walk over bins, or a table handed in would be a second rule
    package = Path(drt.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in package.glob("*.py")}
    for name in ("_cell_table", "on_bins", "_group"):
        assert not [file for file, text in sources.items() if name in text]
    # the level walk serves only the reference and the out-of-bag votes
    walkers = (drt.ForestModel._walk, drt.train_forest)
    assert all(".apply(" in inspect.getsource(f) for f in walkers)
    assert sum(text.count(".apply(") for text in sources.values()) == sum(
        inspect.getsource(f).count(".apply(") for f in walkers)
    for path in [*package.glob("*.py"), *Path(__file__).parent.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "attr", None) == "_predict_bins":
                assert len(node.args) == 2 and not node.keywords, path.name
            elif (isinstance(node, ast.FunctionDef)
                  and node.name == "_predict_bins"):
                assert [a.arg for a in node.args.args] == ["self", "bins", "edges"]
                assert not node.args.kwonlyargs and not node.args.vararg
                # rows are grouped by their bins alone, not by a packed code
                calls = [c for c in ast.walk(node) if isinstance(c, ast.Call)
                         and getattr(c.func, "id", None) == "_distinct"]
                assert [(len(c.args), c.keywords) for c in calls] == [(1, [])]
            elif isinstance(node, ast.FunctionDef) and node.name == "_distinct":
                assert [a.arg for a in node.args.args] == ["bins"]
                assert not node.args.kwonlyargs and not node.args.vararg


def test_one_piece_rule():
    # how large a pass's temporaries may grow is decided once, by
    # volume.PIECE through volume.pieces: a second budget, or a pass that
    # cuts its own ranges, would be a second rule to keep in step
    package = Path(drt.__file__).parent
    paths = [*package.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    sources = {path: path.read_text(encoding="utf-8") for path in paths}
    # the budgets before this rule, written so that the pattern does not
    # match itself
    old = re.compile(r"\bPIECE_(?:VOXELS|ROWS)\b|_(?:EDT_PIECE|SCATTER_BATCH)\b")
    assert not [path.name for path, text in sources.items() if old.search(text)]
    src = {path.name: text for path, text in sources.items()
           if path.parent == package}
    # module-level names of a budget, and steps max(1, budget // width)
    budget = re.compile(r"^(\w*(?:PIECE|BATCH|CHUNK)\w*)\s*=",
                        re.MULTILINE | re.IGNORECASE)
    assert {name: budget.findall(text) for name, text in src.items()
            if budget.search(text)} == {"volume.py": ["PIECE"]}
    step = re.compile(r"max\(1, [^()]*//")
    assert [name for name, text in src.items() if step.search(text)] == ["volume.py"]
    assert step.search(inspect.getsource(volume.pieces))
    for fn in (filters._smooth_array, forest._bin, forest.ForestModel._predict_bins,
               morphology._squared_distances, morphology._paint,
               morphology._paint_chords):
        assert "in pieces(" in inspect.getsource(fn), fn.__name__


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


def test_integer_beyond_the_digit_limit_raises_the_callers_error(tmp_path):
    # json.loads raises a plain ValueError past int's 4300-digit limit
    path = tmp_path / "a.raw"
    path.with_suffix(".json").write_text(
        '{"dims": [1, 1, 1], "voxel_size_um": 1' + "0" * 5000 + "}",
        encoding="utf-8")
    with pytest.raises(BadHeader):
        load_volume(path)


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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_payload_leaves_no_file(tmp_path, value):
    # Python's json would write NaN or Infinity, which no JSON reader takes
    path = tmp_path / "a.json"
    with pytest.raises(ValueError, match="JSON compliant"):
        write_json(path, {"x": [1.0, value]})
    assert not path.exists()


# CSV fields: any text, quoted commas and line breaks included; "\r" is
# read back as "\n" (LF line ends), NUL is no CSV text, and U+FEFF at the
# start of a file is a byte-order mark
_FIELD = st.text(st.characters(blacklist_categories=("Cs",),
                               blacklist_characters="\r\x00\ufeff"),
                 max_size=6)
_NUMBER = st.one_of(st.integers(), st.floats(allow_nan=False)).map(str)


@st.composite
def _data_row(draw):
    """A row of any fields with at least one number among them."""
    fields = draw(st.lists(_FIELD, max_size=4))
    at = draw(st.integers(0, len(fields)))
    return fields[:at] + [draw(_NUMBER)] + fields[at:]


_HEADER = st.lists(st.text("abcxyz_ ,\"\n", max_size=6), min_size=1, max_size=5)


# six text fields, all but the first optional
_TEXTS = ("a[,b[,c[,d[,e[,f]]]]]", (str,) * 6)


def _as_texts(row):
    """What read_csv gives for row under _TEXTS: stripped text, None for an
    optional field that is blank or missing."""
    texts = [f.strip() for f in row] + [""] * (6 - len(row))
    return texts[:1] + [t or None for t in texts[1:]]


class TestReadCsv:
    @settings(max_examples=200, deadline=None)
    @given(header=st.none() | _HEADER,
           rows=st.lists(st.one_of(_data_row(), st.just([])), max_size=8))
    def test_round_trip_names_each_row(self, tmp_path_factory, header, rows):
        path = tmp_path_factory.mktemp("csv") / "rows.csv"
        written = rows if header is None else [[], header] + rows
        write_csv(path, written)
        want = [(f"{path}:{n}", _as_texts(row))
                for n, row in enumerate(written, start=1)
                if row and row is not header]
        assert list(read_csv(path, *_TEXTS)) == want

    @settings(max_examples=100, deadline=None)
    @given(first=_data_row())
    def test_first_row_with_a_number_is_data(self, tmp_path_factory, first):
        path = tmp_path_factory.mktemp("csv") / "rows.csv"
        write_csv(path, [first, ["1"]])
        assert list(read_csv(path, *_TEXTS)) == [
            (f"{path}:1", _as_texts(first)), (f"{path}:2", _as_texts(["1"]))]

    def test_header_is_only_the_first_non_blank_row(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("\nx,y\n1,2\nx,y\n", encoding="utf-8")
        assert list(read_csv(path, "x,y", (str, str))) == [
            (f"{path}:3", ["1", "2"]), (f"{path}:4", ["x", "y"])]

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(b"\xef\xbb\xbfx,y\n1,2\n")
        assert list(read_csv(path, "x,y", (int, int))) == [
            (f"{path}:2", [1, 2])]
        path.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
        assert [row for _, row in read_csv(path, "x,y", (int, int))] == [
            [1, 2], [3, 4]]

    @pytest.mark.parametrize("layout, kinds, row", [
        ("a,b", (str, str), "1,2,3"),
        ("a,b[,c]", (str, str, str), "1"),
        ("a,b[,c]", (str, str, str), "1,2,3,4"),
    ])
    def test_field_count_error_names_row_and_layout(self, tmp_path, layout,
                                                    kinds, row):
        path = tmp_path / "a.csv"
        path.write_text(f"a,b\n1,2\n\n{row}\n", encoding="utf-8")
        with pytest.raises(BadParams, match=re.escape(
                f"{path}:4: expected {layout}, got {row.count(',') + 1} "
                f"fields")):
            list(read_csv(path, layout, kinds))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers().map(str),
           x=st.one_of(st.integers(), st.floats(allow_nan=False,
                                                allow_infinity=False)).map(str),
           blank=st.sampled_from([None, "", " ", "\t"]))
    def test_typed_fields_read_back(self, tmp_path_factory, n, x, blank):
        path = tmp_path_factory.mktemp("csv") / "rows.csv"
        write_csv(path, [["n", "x", "t"], [n, x] + ([] if blank is None
                                                   else [blank])])
        assert list(read_csv(path, "n,x[,t]", (int, float, str))) == [
            (f"{path}:2", [int(n), float(x), None])]

    @settings(max_examples=50, deadline=None)
    @given(bad=st.sampled_from(["nan", "inf", "-Infinity", "1e400", "NaN",
                                "-inf", "9" * 400]),
           blank_lines=st.integers(0, 2))
    def test_non_finite_float_names_row_and_column(self, tmp_path_factory,
                                                   bad, blank_lines):
        path = tmp_path_factory.mktemp("csv") / "rows.csv"
        path.write_text("n,x\n1,2.5\n" + "\n" * blank_lines + f"3,{bad}\n",
                        encoding="utf-8")
        with pytest.raises(BadParams, match=re.escape(
                f"{path}:{3 + blank_lines}: x must be a JSON number that "
                f"fits a float")):
            list(read_csv(path, "n,x", (int, float)))

    @pytest.mark.parametrize("text, kinds, message", [
        ("1.5,2", (int, float), "non-integer field n: '1.5'"),
        ("1,x", (int, float), "non-number field x: 'x'"),
        ("1,", (int, float), "non-number field x: ''"),
    ])
    def test_unparsed_field_names_row_and_field(self, tmp_path, text, kinds,
                                                message):
        path = tmp_path / "a.csv"
        path.write_text(f"n,x\n{text}\n", encoding="utf-8")
        with pytest.raises(BadParams, match=re.escape(f"{path}:2: {message}")):
            list(read_csv(path, "n,x", kinds))


def _load_volume_of_sidecar(sidecar):
    sidecar.with_suffix(".raw").write_bytes(b"")
    return load_volume(sidecar.with_suffix(".raw"))


def _json_file(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# each reader of a JSON document, the error class it raises, the top-level
# JSON type it expects, and a document of another type
@pytest.mark.parametrize("reader, error, kind, doc", [
    (_load_volume_of_sidecar, BadHeader, "object", []),
    (load_model, BadModelFile, "object", [1]),
    (load_camo, BadParams, "object", "connected"),
    (load_catalog, BadParams, "array", {}),
], ids=["load_volume", "load_model", "load_camo", "load_catalog"])
def test_wrong_top_level_type_raises_the_callers_error(tmp_path, reader, error,
                                                       kind, doc):
    path = _json_file(tmp_path, doc)
    with pytest.raises(error, match=re.escape(f"{path} must hold a JSON {kind}")):
        reader(path)


def test_read_json_checks_the_top_level_type(tmp_path):
    path = _json_file(tmp_path, [1])
    assert read_json(path, BadHeader, list) == [1]
    with pytest.raises(BadHeader, match=re.escape(
            f"{path} must hold a JSON object")):
        read_json(path, BadHeader, dict)
