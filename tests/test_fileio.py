"""Text artifact I/O: encoding, error mapping, and its single home."""

import ast
import collections
import inspect
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import drt
from drt import cli, filters, forest, morphology, volume
from drt import (BadHeader, BadModelFile, BadParams, IoFailure, load_camo,
                 load_catalog, load_model, load_volume)
from drt.fileio import (open_replacement, read_csv, read_json, read_text,
                        write_csv, write_json, write_text)

_RAW_TEXT_IO = re.compile(
    r"json\.dumps?\(|json\.loads?\(|\bopen\(|\.write_text\(|\.read_text\("
    r"|\bimport csv\b")


def test_only_fileio_opens_or_encodes_text():
    package = Path(drt.__file__).parent
    hits = sorted({path.name for path in package.glob("*.py")
                   if _RAW_TEXT_IO.search(path.read_text(encoding="utf-8"))})
    assert hits == ["fileio.py"]


def test_one_volume_write_path():
    # every volume blob goes through volume_writer, and only it makes the
    # temporary file that replaces its target: a second writer would be a
    # second place where a failed run can leave a partial file
    package = Path(drt.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in package.glob("*.py")}
    hits = {name: text.count("open_replacement(") for name, text in sources.items()}
    assert {name: n for name, n in hits.items() if n} == {"fileio.py": 1,
                                                           "volume.py": 1}
    assert "open_replacement(" in inspect.getsource(volume.volume_writer)
    assert not [name for name, text in sources.items()
                if re.search(r"\.(?:write_bytes|tofile)\(", text)]
    assert "volume_writer(" in inspect.getsource(volume.save_volume)
    source = inspect.getsource(cli.cmd_segment)
    assert source.count("volume_writer(") == 2 and "save_volume" not in source


def test_replacement_passes_the_blocks_errors_through(tmp_path):
    # an OSError of the caller's own is not taken for one of the
    # replacement's, and the target is kept as it was
    target = tmp_path / "vol.raw"
    target.write_bytes(b"earlier")
    error = OSError("the caller's")
    with pytest.raises(OSError) as info:
        with open_replacement(target) as fh:
            fh.write(b"partial")
            raise error
    assert info.value is error
    assert [p.name for p in tmp_path.iterdir()] == ["vol.raw"]
    assert target.read_bytes() == b"earlier"


def test_replacement_writes_through_a_symlink(tmp_path):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "vol.raw").write_bytes(b"earlier")
    link = tmp_path / "vol.raw"
    link.symlink_to(tmp_path / "data" / "vol.raw")
    with open_replacement(link) as fh:
        fh.write(b"new")
    assert link.is_symlink()
    assert (tmp_path / "data" / "vol.raw").read_bytes() == b"new"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["data", "vol.raw",
                                                           "vol.raw"]


def test_only_binary_mask_tests_class_membership():
    # one reader of class sets: a second isin path would bring back a
    # second validation rule
    package = Path(drt.__file__).parent
    hits = {path.name: len(re.findall(r"\bisin\b", path.read_text(encoding="utf-8")))
            for path in package.glob("*.py")}
    assert {name: n for name, n in hits.items() if n} == {"morphology.py": 1}
    assert "np.isin(" in inspect.getsource(drt.binary_mask)
    # the mask is isin's boolean grid, and every transform reads it as it is:
    # a cast on either side would be one more grid per voxel
    assert "astype" not in inspect.getsource(drt.binary_mask)
    assert not re.search(r"!=\s*0\b", inspect.getsource(morphology))
    for reader in (morphology.connected_components,
                   morphology.euclidean_distance_transform,
                   morphology.local_thickness,
                   morphology._pore_throat_distribution):
        assert "fg = mask.data.astype(bool, copy=False)" in inspect.getsource(
            reader), reader.__name__
    # whether a label value is a class id is binary_mask's rule too, not
    # arithmetic on the labels' extremes
    source = inspect.getsource(drt.porosity_from_labels)
    assert "binary_mask(labels, range(n_classes))" in source
    assert not re.search(r"\.(?:max|min)\(|\bint\(", source)


def test_only_two_callers_predict_bins():
    # one prediction core: each caller bins its own input, and a third
    # layer between the core and its callers would be one more to keep in step
    package = Path(drt.__file__).parent
    hits = {path.name: len(re.findall(r"\b_predict_bins\(",
                                      path.read_text(encoding="utf-8")))
            for path in package.glob("*.py")}
    # its def and its two calls
    assert {name: n for name, n in hits.items() if n} == {"forest.py": 3}
    for caller in (drt.ForestModel.predict_batch, forest.segment_slabs):
        assert inspect.getsource(caller).count("._predict_bins(") == 1
    # one slab loop: segment_volume and the segment command both take their
    # slabs from segment_slabs, and only it runs the slabs of a prediction
    assert inspect.getsource(forest).count("map_slabs(") == 1
    assert "map_slabs(" in inspect.getsource(forest.segment_slabs)
    for caller in (drt.segment_volume, cli.cmd_segment):
        assert inspect.getsource(caller).count("segment_slabs(") == 1


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
               morphology._paint_chords, morphology.binary_mask):
        assert "in pieces(" in inspect.getsource(fn), fn.__name__


def _names_used(node) -> list[str]:
    """The names that node's subtree refers to: names, attributes, import
    aliases, and string constants that are a name or a dotted path to one
    (as the export table and monkeypatch targets are)."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.alias):
            out += [sub.name.rpartition(".")[2], sub.asname]
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and re.fullmatch(r"[\w.]+", sub.value)):
            out.append(sub.value.rpartition(".")[2])
    return out


def test_every_definition_is_used():
    # a function, method or class of the package that nothing names outside
    # its own body is dead code: each line of it is one more to keep right
    package = Path(drt.__file__).parent
    paths = [*package.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    used = collections.Counter(
        name for tree in trees.values() for name in _names_used(tree))
    unused = set()
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not re.fullmatch(r"__\w+__", node.name)
                    and used[node.name] == _names_used(node).count(node.name)):
                unused.add(f"{path.name}:{node.name}")
    assert sorted(unused) == []


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
