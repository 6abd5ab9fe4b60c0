"""One rule for JSON values: every reader takes a number only as a finite
JSON number, and refuses NaN, infinities, overflowing values, numeric
strings and booleans as its own input error (exit 2 through the CLI)."""

import json
import re
import sys

import pytest
from hypothesis import given, strategies as st

from drt import load_pc_curve_json
from drt.cli import main
from drt.errors import InputError
from drt.fileio import json_typed

# a field that a case fills with the JSON text of the value under test
_SLOT = "@slot@"

# JSON texts that are no finite JSON number; Python's json reads each
BAD_NUMBERS = {"NaN": "NaN", "Infinity": "Infinity", "-Infinity": "-Infinity",
               "1e400": "1e400", "int400": "1" + "0" * 399,
               "string": '"1.5"', "true": "true"}

DIRECT = ["classify", "--k", "80", "--pcd", "50", "--pcu", "300",
          "--swi", "0.1"]


def _write(path, doc, text):
    """Write doc as JSON with the _SLOT string replaced by the JSON text."""
    path.write_text(json.dumps(doc).replace(f'"{_SLOT}"', text),
                    encoding="utf-8")
    return path


def _config(section, key):
    def case(tmp_path, text):
        cfg = _write(tmp_path / "cfg.json", {section: {key: _SLOT}}, text)
        return DIRECT + ["--config", str(cfg), "--out", str(tmp_path / "out")]
    return case


_LEAVES = [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]]


def _segment(sidecar_value, tree):
    """Segment a 4^3 volume with a one-split model, the slot in either."""
    def case(tmp_path, text):
        (tmp_path / "gray.raw").write_bytes(bytes(range(64)))
        _write(tmp_path / "gray.json", {
            "dims": [4, 4, 4], "voxel_size_um": sidecar_value,
            "value_kind": "grayscale", "element_encoding": "u8",
            "byte_order": "little"}, text)
        model = {
            "version": 1,
            "hyperparameters": {"n_trees": 1, "max_depth": 1,
                                "min_samples_split": 2,
                                "features_per_split": None,
                                "bag_fraction": 1.0},
            "feature_bank": {"sigmas_vox": [1.0], "include_raw": True,
                             "boundary_mode": "mirror"},
            "class_names": ["pore", "matrix"], "rng_seed": 0,
            "oob_accuracy": None,
            "trees": [{"feature": [0, -1, -1], "left": [1, -1, -1],
                       "right": [2, -1, -1], **tree}],
        }
        _write(tmp_path / "model.json", model, text)
        return ["segment", "--volume", str(tmp_path / "gray.raw"),
                "--model", str(tmp_path / "model.json"),
                "--out", str(tmp_path / "seg.raw")]
    return case


def _catalog(rule):
    def case(tmp_path, text):
        path = _write(tmp_path / "catalog.json", [{"code": "L111", **rule}], text)
        return DIRECT + ["--catalog", str(path), "--out", str(tmp_path / "out")]
    return case


def _camo(key):
    def case(tmp_path, text):
        row = {"a": 500.0, "b": 3.0, "phi_min": 0.05, "phi_max": 0.4,
               key: _SLOT}
        relations = _write(tmp_path / "camo.json", {"connected": row}, text)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"camo": {"relations_path": str(relations)}}))
        return DIRECT + ["--config", str(cfg), "--out", str(tmp_path / "out")]
    return case


def _pc_curve(tmp_path, text):
    path = _write(tmp_path / "pc_curve.json", {
        "p_cd": 50.0, "p_cu": _SLOT, "s_wi": 0.1, "lambda": 1.5}, text)
    return lambda: load_pc_curve_json(path)


def _analysis(key, stage):
    def case(tmp_path, text):
        doc = {"source": "seg.raw", "porosity": 0.2, "permeability_md": 80.0,
               "p_cd_psi": 50.0, "p_cu_psi": 300.0, "s_wi": 0.1,
               "lambda": 1.5, "camo_class": "connected",
               "modality": {"modality": "unimodal", "archetype": "meso",
                            "distance": 0.1},
               "rock_type": {"code": "L111", "violations": []}, key: _SLOT}
        run = tmp_path / "run"
        run.mkdir()
        _write(run / "analysis.json", doc, text)
        (run / "pc_curve.csv").write_text("s_w,pc_psi\n1,50\n")
        if stage == "classify":
            argv = ["classify", "--analysis", str(run / "analysis.json")]
        else:
            argv = ["report", "--run", str(run)]
        return argv + ["--out", str(tmp_path / "out")]
    return case


# each JSON reader: the case that writes its input and gives the argv of a
# CLI run (or a call) that reads it, the key the error must name, and a
# value the reader accepts
READERS = {
    "config flat p_cu_psi": (_config("capillary", "p_cu_psi"), "p_cu_psi", "100"),
    "config flat p_cu_ratio": (_config("capillary", "p_cu_ratio"), "p_cu_ratio",
                               "4"),
    "config nested": (_config("forest", "bag_fraction"), "bag_fraction", "0.5"),
    "sidecar": (_segment(_SLOT, {"threshold": [0.5, 0.0, 0.0],
                                 "probs": _LEAVES}), "voxel_size_um", "2.5"),
    "tree threshold": (_segment(1.0, {"threshold": [_SLOT, 0.0, 0.0],
                                      "probs": _LEAVES}), "threshold", "0.25"),
    "tree probs": (_segment(1.0, {"threshold": [0.5, 0.0, 0.0],
                                  "probs": [[_SLOT, 0.5], *_LEAVES[1:]]}),
                   "probs row", "0.5"),
    "catalog bound": (_catalog({"k_min": _SLOT}), "k_min", "60"),
    "catalog psi": (_catalog({"p_cu": {"op": "lt", "psi": _SLOT}}), "p_cu.psi",
                    "400"),
    "camo a": (_camo("a"), "a", "500"),
    "camo b": (_camo("b"), "b", "3"),
    "pc curve": (_pc_curve, "p_cu", "400"),
    "analysis classify": (_analysis("permeability_md", "classify"),
                          "permeability_md", "80"),
    "analysis report": (_analysis("porosity", "report"), "porosity", "0.2"),
}


@pytest.mark.parametrize("token", BAD_NUMBERS)
@pytest.mark.parametrize("reader", READERS)
def test_no_finite_json_number_is_an_input_error_naming_its_key(
        tmp_path, caplog, reader, token):
    case, key, _ = READERS[reader]
    target = case(tmp_path, BAD_NUMBERS[token])
    named = rf"(^|\W){re.escape(key)}( entry)? must be a JSON number"
    if callable(target):
        with pytest.raises(InputError, match=named):
            target()
    else:
        assert main(target) == 2
        assert re.search(named, caplog.text, re.MULTILINE)
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("reader", READERS)
def test_a_finite_number_is_read(tmp_path, reader):
    case, _, good = READERS[reader]
    target = case(tmp_path, good)
    if callable(target):
        target()
    else:
        assert main(target) == 0


# float() overflows on an integer at or beyond 2**1024 - 2**970, the midpoint
# between the largest float and 2**1024, to which it rounds up
_FLOAT_EDGE = 2**1024 - 2**970


@given(st.one_of(
    st.integers(), st.integers(_FLOAT_EDGE - 4, _FLOAT_EDGE + 4),
    st.integers(-_FLOAT_EDGE - 4, -_FLOAT_EDGE + 4), st.floats(),
    st.booleans(), st.none(), st.text(max_size=4),
    st.lists(st.floats(), max_size=2)))
def test_json_typed_float_takes_exactly_finite_ints_and_floats(value):
    finite = (type(value) is int and abs(value) < _FLOAT_EDGE
              or type(value) is float and abs(value) <= sys.float_info.max)
    if finite:
        assert json_typed(value, float, "x") is value
    else:
        with pytest.raises(TypeError, match=r"^x must be a JSON number"):
            json_typed(value, float, "x")
