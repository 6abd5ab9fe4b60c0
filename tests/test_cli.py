"""Command line pipeline: train, segment, analyze, classify, report."""

import dataclasses
import filecmp
import hashlib
import json
import logging
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import drt.forest
from drt import load_model, load_volume, make_phantom, save_volume
from drt.cli import config_from_json_dict, main, PipelineConfig
from drt.errors import ConfigError

from conftest import PIECES

try:
    import resource
except ImportError:  # Windows
    resource = None


def check_stage_line(command, line):
    """main's -v line: the stage's seconds, then, where the resource module
    exists, the process's peak RSS so far."""
    if resource is None:
        assert re.fullmatch(rf"{command}: \d+\.\d{{3}} s", line)
        return
    match = re.fullmatch(rf"{command}: \d+\.\d{{3}} s, peak RSS (\d+\.\d) MB",
                         line)
    assert match, line
    unit = 1 << 20 if sys.platform == "darwin" else 1 << 10
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit
    assert 0 < float(match.group(1)) <= round(peak, 1)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A small labeled sphere-pack dataset plus a fast pipeline config."""
    root = tmp_path_factory.mktemp("cli_data")
    gray, truth = make_phantom("sphere_pack", (24, 24, 24), seed=7,
                               n_spheres=10, radius_range=(3.0, 6.0),
                               noise_sigma=8.0)
    save_volume(gray, root / "gray.raw")
    save_volume(truth, root / "truth.raw")

    # balanced annotations in x,y,z,class_id order
    lines = ["x,y,z,class_id"]
    for class_id in (0, 1):
        zyx = np.argwhere(truth.data == class_id)
        step = max(1, len(zyx) // 80)
        for z, y, x in zyx[::step][:80]:
            lines.append(f"{x},{y},{z},{class_id}")
    (root / "labels.csv").write_text("\n".join(lines) + "\n")

    config = {
        "feature_bank": {"sigmas_vox": [1.0, 2.0]},
        "forest": {"n_trees": 8, "max_depth": 10},
        "segmentation": {"class_names": ["pore", "matrix"],
                         "pore_classes": [0]},
    }
    (root / "config.json").write_text(json.dumps(config))
    return root


@pytest.fixture(scope="module")
def trained(workdir):
    model = workdir / "model.json"
    rc = main(["train", "--volume", str(workdir / "gray.raw"),
               "--labels", str(workdir / "labels.csv"),
               "--config", str(workdir / "config.json"),
               "--out", str(model), "--seed", "0"])
    assert rc == 0
    return model


@pytest.fixture(scope="module")
def segmented(workdir, trained):
    seg = workdir / "seg.raw"
    rc = main(["segment", "--volume", str(workdir / "gray.raw"),
               "--model", str(trained), "--out", str(seg)])
    assert rc == 0
    return seg


@pytest.fixture(scope="module")
def analyzed(workdir, segmented):
    out = workdir / "analysis"
    rc = main(["analyze", "--labels", str(segmented),
               "--config", str(workdir / "config.json"), "--out", str(out)])
    assert rc == 0
    return out


class TestTrain:
    def test_writes_model(self, workdir, trained, capsys):
        doc = json.loads(trained.read_text())
        assert doc["version"] == 1
        assert doc["class_names"] == ["pore", "matrix"]
        assert len(doc["trees"]) == 8

    def test_prints_oob_and_path(self, workdir, capsys):
        out = workdir / "model_echo.json"
        main(["train", "--volume", str(workdir / "gray.raw"),
              "--labels", str(workdir / "labels.csv"),
              "--config", str(workdir / "config.json"),
              "--out", str(out)])
        printed = capsys.readouterr().out.splitlines()
        assert printed[0].startswith("oob_accuracy ")
        assert printed[1] == str(out)

    def test_same_seed_is_byte_identical(self, workdir, trained):
        again = workdir / "model_again.json"
        main(["train", "--volume", str(workdir / "gray.raw"),
              "--labels", str(workdir / "labels.csv"),
              "--config", str(workdir / "config.json"),
              "--out", str(again), "--seed", "0"])
        assert again.read_bytes() == trained.read_bytes()

    def test_seed_changes_model(self, workdir, trained):
        other = workdir / "model_seed1.json"
        main(["train", "--volume", str(workdir / "gray.raw"),
              "--labels", str(workdir / "labels.csv"),
              "--config", str(workdir / "config.json"),
              "--out", str(other), "--seed", "1"])
        assert other.read_bytes() != trained.read_bytes()

    def test_verbose_logs_forest_summary(self, workdir, trained, tmp_path,
                                         capsys, caplog):
        out = tmp_path / "model.json"
        with caplog.at_level(logging.DEBUG, logger="drt"):
            rc = main(["-v", "train", "--volume", str(workdir / "gray.raw"),
                       "--labels", str(workdir / "labels.csv"),
                       "--config", str(workdir / "config.json"),
                       "--out", str(out), "--seed", "0"])
        assert rc == 0
        oob_line = capsys.readouterr().out.splitlines()[0]
        assert out.read_bytes() == trained.read_bytes()
        [line, seconds] = [r.getMessage() for r in caplog.records
                           if r.name == "drt"]
        trees = json.loads(out.read_text())["trees"]

        def depth(tree, node=0):
            if tree["feature"][node] < 0:
                return 0
            return 1 + max(depth(tree, tree["left"][node]),
                           depth(tree, tree["right"][node]))

        nodes = sum(len(t["feature"]) for t in trees)
        oob = oob_line.removeprefix("oob_accuracy ")
        assert re.fullmatch(
            rf"train: {len(trees)} trees, {nodes} nodes, max depth "
            rf"{max(map(depth, trees))}, oob accuracy {re.escape(oob)}, "
            r"fit \d+\.\d{3} s", line)
        check_stage_line("train", seconds)

    def test_labels_beyond_named_classes(self, workdir, tmp_path):
        bad = tmp_path / "bad_labels.csv"
        bad.write_text("0,0,0,5\n1,0,0,5\n")
        rc = main(["train", "--volume", str(workdir / "gray.raw"),
                   "--labels", str(bad),
                   "--config", str(workdir / "config.json"),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2

    @pytest.mark.parametrize("first", ["1.5,2,3,0", "x,2,3,0"])
    def test_first_row_with_a_number_is_data(self, workdir, tmp_path, caplog,
                                              first):
        labels = tmp_path / "labels.csv"
        labels.write_text(f"{first}\n4,5,6,1\n")
        rc = main(["train", "--volume", str(workdir / "gray.raw"),
                   "--labels", str(labels),
                   "--config", str(workdir / "config.json"),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert f"{labels}:1: non-integer field" in caplog.text
        assert not (tmp_path / "m.json").exists()

    def test_byte_order_mark_keeps_the_first_row(self, workdir, trained,
                                                 tmp_path):
        labels = tmp_path / "labels.csv"
        text = (workdir / "labels.csv").read_text()
        labels.write_text("\ufeff" + text.split("\n", 1)[1], encoding="utf-8")
        out = tmp_path / "m.json"
        rc = main(["train", "--volume", str(workdir / "gray.raw"),
                   "--labels", str(labels),
                   "--config", str(workdir / "config.json"),
                   "--out", str(out), "--seed", "0"])
        assert rc == 0
        assert out.read_bytes() == trained.read_bytes()

    def test_missing_volume_is_io_error(self, workdir, tmp_path):
        rc = main(["train", "--volume", str(tmp_path / "nope.raw"),
                   "--labels", str(workdir / "labels.csv"),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 4

    def test_creates_parent_of_out(self, workdir, trained, tmp_path):
        out = tmp_path / "run" / "models" / "model.json"
        rc = main(["train", "--volume", str(workdir / "gray.raw"),
                   "--labels", str(workdir / "labels.csv"),
                   "--config", str(workdir / "config.json"),
                   "--out", str(out), "--seed", "0"])
        assert rc == 0
        assert out.read_bytes() == trained.read_bytes()


class TestSegment:
    def test_outputs_and_accuracy(self, workdir, segmented):
        truth = load_volume(workdir / "truth.raw")
        seg = load_volume(segmented)
        assert seg.header.value_kind == "label"
        acc = float((seg.data == truth.data).mean())
        assert acc > 0.95

    def test_confidence_volume(self, workdir, segmented):
        conf = load_volume(workdir / "seg_confidence.raw")
        assert conf.header.value_kind == "grayscale"
        assert conf.data.min() >= 0.5 - 1e-6  # two classes
        assert conf.data.max() <= 1.0 + 1e-6

    def test_prints_class_counts(self, workdir, trained, capsys):
        out = workdir / "seg_echo.raw"
        main(["segment", "--volume", str(workdir / "gray.raw"),
              "--model", str(trained), "--out", str(out)])
        printed = capsys.readouterr().out.splitlines()
        assert printed[0].startswith("0 pore ")
        assert printed[1].startswith("1 matrix ")
        assert printed[2] == str(out)
        assert printed[3] == str(workdir / "seg_echo_confidence.raw")

    def test_class_counts_copy_no_volume(self, trained, tmp_path, capsys,
                                         monkeypatch):
        # the work after the slabs holds less than 1 B/voxel: counting the
        # whole u8 label volume with one bincount held an 8 B/voxel intp copy
        gray, _ = make_phantom("sphere_pack", (48, 48, 48), seed=7,
                               n_spheres=40, radius_range=(3.0, 6.0),
                               noise_sigma=8.0)
        save_volume(gray, tmp_path / "gray.raw")
        real = drt.forest.segment_volume

        def traced(*args, **kwargs):
            result = real(*args, **kwargs)
            tracemalloc.start()
            return result

        monkeypatch.setattr(drt.forest, "segment_volume", traced)
        out = tmp_path / "seg.raw"
        try:
            rc = main(["segment", "--volume", str(tmp_path / "gray.raw"),
                       "--model", str(trained), "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        seg = load_volume(out)
        assert peak < seg.data.size
        printed = capsys.readouterr().out.splitlines()
        counts = np.bincount(seg.data.ravel(), minlength=2)
        assert printed[:2] == [f"0 pore {counts[0]}", f"1 matrix {counts[1]}"]

    def test_deterministic(self, workdir, trained, segmented, tmp_path):
        again = tmp_path / "seg.raw"
        main(["segment", "--volume", str(workdir / "gray.raw"),
              "--model", str(trained), "--out", str(again)])
        assert again.read_bytes() == segmented.read_bytes()

    def test_creates_parent_of_out(self, workdir, trained, segmented, tmp_path):
        out = tmp_path / "run" / "seg" / "seg.raw"
        rc = main(["segment", "--volume", str(workdir / "gray.raw"),
                   "--model", str(trained), "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == segmented.read_bytes()
        assert (out.parent / "seg_confidence.raw").is_file()

    def test_out_ending_in_json_exits_2_and_writes_nothing(
            self, workdir, trained, tmp_path, caplog):
        rc = main(["segment", "--volume", str(workdir / "gray.raw"),
                   "--model", str(trained), "--out", str(tmp_path / "seg.json")])
        assert rc == 2
        assert "ends in .json" in caplog.text
        assert list(tmp_path.iterdir()) == []

    def test_out_ending_in_json_fails_before_reading_the_model(
            self, workdir, tmp_path, caplog):
        rc = main(["segment", "--volume", str(workdir / "gray.raw"),
                   "--model", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "seg.JSON")])
        assert rc == 2
        assert "ends in .json" in caplog.text
        assert list(tmp_path.iterdir()) == []

    def test_bad_model_file(self, workdir, tmp_path):
        bad = tmp_path / "model.json"
        bad.write_text("{}")
        rc = main(["segment", "--volume", str(workdir / "gray.raw"),
                   "--model", str(bad), "--out", str(tmp_path / "s.raw")])
        assert rc == 2

    def test_class_ids_above_uint8_exit_2(self, workdir, trained, tmp_path):
        # every leaf says class 299, which a u8 label would wrap to 43
        doc = json.loads(trained.read_text())
        doc["class_names"] = [f"c{i}" for i in range(300)]
        for tree in doc["trees"]:
            tree["probs"] = [[0.0] * 299 + [1.0] for _ in tree["probs"]]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "drt.cli", "segment",
             "--volume", str(workdir / "gray.raw"), "--model", str(model),
             "--out", str(tmp_path / "s.raw")],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "300 classes" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "s.raw").exists()

    @pytest.mark.parametrize("field, value", [
        ("left", 0),         # the root is its own child: the walk never ends
        ("left", 10**6),     # child beyond the last node
        ("feature", 99),     # feature beyond the bank
    ])
    def test_malformed_tree_exits_2(self, workdir, trained, tmp_path, field,
                                    value):
        doc = json.loads(trained.read_text())
        doc["trees"][0][field][0] = value
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "drt.cli", "segment",
             "--volume", str(workdir / "gray.raw"), "--model", str(bad),
             "--out", str(tmp_path / "s.raw")],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_integer_node_id_exits_2(self, workdir, trained, tmp_path):
        doc = json.loads(trained.read_text())
        doc["trees"][0]["feature"][0] = 1.7
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "drt.cli", "segment",
             "--volume", str(workdir / "gray.raw"), "--model", str(bad),
             "--out", str(tmp_path / "s.raw")],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_verbose_logs_prediction_counts(self, workdir, trained, segmented,
                                            tmp_path, capsys, caplog):
        argv = ["segment", "--volume", str(workdir / "gray.raw"),
                "--model", str(trained)]
        main(argv + ["--out", str(tmp_path / "quiet.raw")])
        quiet = capsys.readouterr().out
        with caplog.at_level(logging.DEBUG, logger="drt"):
            rc = main(["-v"] + argv + ["--out", str(tmp_path / "loud.raw")])
        assert rc == 0
        assert capsys.readouterr().out == quiet.replace("quiet", "loud")
        lines = [r.getMessage() for r in caplog.records if r.name == "drt.forest"]
        assert len(lines) == 1
        assert lines[0].startswith("forest predict: 8 trees, ")
        assert f", {24 ** 3} rows, " in lines[0]
        assert lines[0].endswith(" bin codes")
        for suffix in (".raw", "_confidence.raw"):
            assert ((tmp_path / f"loud{suffix}").read_bytes()
                    == (tmp_path / f"quiet{suffix}").read_bytes())
        assert (tmp_path / "loud.raw").read_bytes() == segmented.read_bytes()

    def test_verbose_logs_one_summary_line(self, workdir, trained, segmented,
                                           tmp_path, caplog):
        out = tmp_path / "s.raw"
        with caplog.at_level(logging.DEBUG, logger="drt"):
            rc = main(["-v", "segment", "--volume", str(workdir / "gray.raw"),
                       "--model", str(trained), "--threads", "2",
                       "--out", str(out)])
        assert rc == 0
        lines = [r.getMessage() for r in caplog.records if r.name == "drt"]
        [slabs] = [r.getMessage() for r in caplog.records if r.name == "drt.filters"]
        predicts = [r.getMessage() for r in caplog.records
                    if r.name == "drt.forest"]
        conf = load_volume(tmp_path / "s_confidence.raw").data
        deciles = " ".join(f"{q:.3f}" for q in
                           np.percentile(conf, np.arange(10, 100, 10)))
        assert lines[0] == f"segment: 2 threads, confidence deciles {deciles}"
        check_stage_line("segment", lines[1])
        assert len(lines) == 2
        assert slabs.startswith("feature slabs: 2 slabs, ")
        # the slabs' predict lines count every voxel once, and name the
        # model's widest tree
        counts = [re.fullmatch(r"forest predict: 8 trees, \d+ nodes, (\d+) "
                               r"leaves in the widest tree, (\d+) rows, \d+ "
                               r"bin codes", m).groups()
                  for m in predicts]
        assert len(counts) == 2
        assert sum(int(rows) for _, rows in counts) == 24 ** 3
        model = load_model(trained)
        widest = max(np.count_nonzero(t.feature < 0) for t in model.trees)
        assert [int(leaves) for leaves, _ in counts] == [widest] * 2
        assert out.read_bytes() == segmented.read_bytes()

    def test_verbose_logs_one_slab_line_per_stage(self, workdir, trained, tmp_path,
                                                  capsys, caplog):
        common = ["--config", str(workdir / "config.json"), "--threads", "2"]
        train = ["train", "--volume", str(workdir / "gray.raw"),
                 "--labels", str(workdir / "labels.csv"), *common]
        segment = ["segment", "--volume", str(workdir / "gray.raw"),
                   "--model", str(trained), *common]
        (tmp_path / "quiet").mkdir()
        (tmp_path / "loud").mkdir()
        quiet = []
        for argv, out in ((train, "m.json"), (segment, "s.raw")):
            main(argv + ["--out", str(tmp_path / "quiet" / out)])
            quiet.append(capsys.readouterr().out)
        for (argv, out), expected in zip(((train, "m.json"), (segment, "s.raw")), quiet):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="drt"):
                assert main(["-v"] + argv + ["--out", str(tmp_path / "loud" / out)]) == 0
            assert capsys.readouterr().out == expected.replace("quiet", "loud")
            slab_lines = [r.getMessage() for r in caplog.records
                          if r.name == "drt.filters"]
            predict_lines = [r for r in caplog.records if r.name == "drt.forest"
                             and r.getMessage().startswith("forest predict: ")]
            # 24 planes, a halo of 6: 2 slabs of 12, halos of 3 and 6 planes
            # each way, cut at the volume's faces
            assert slab_lines == ["feature slabs: 2 slabs, height 12, 2 workers, "
                                  "18 halo planes recomputed"]
            assert len(predict_lines) == (2 if argv is segment else 0)
        for name in ("m.json", "s.raw", "s_confidence.raw"):
            assert ((tmp_path / "loud" / name).read_bytes()
                    == (tmp_path / "quiet" / name).read_bytes())


class TestAnalyze:
    def test_artifacts(self, analyzed):
        for name in ("analysis.json", "throat_distribution.csv",
                     "throat_distribution.json", "pc_curve.json",
                     "pc_curve.csv"):
            assert (analyzed / name).is_file()

    def test_analysis_content(self, workdir, analyzed):
        a = json.loads((analyzed / "analysis.json").read_text())
        truth = load_volume(workdir / "seg.raw")
        assert a["source"] == "seg.raw"
        assert a["porosity"] == pytest.approx(float((truth.data == 0).mean()))
        assert a["n_components"] >= 1
        assert a["camo_class"] in ("connected", "non_connected", "micropore")
        assert a["permeability_md"] > 0
        assert a["p_cu_psi"] == pytest.approx(8.0 * a["p_cd_psi"])
        assert a["s_wi"] == 0.10
        assert a["rock_type"]["code"]
        assert a["modality"]["modality"] in ("Singular", "Dual", "Triple")

    def test_deterministic_across_directories(self, workdir, segmented, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for out in (a_dir, b_dir):
            rc = main(["analyze", "--labels", str(segmented),
                       "--config", str(workdir / "config.json"),
                       "--out", str(out)])
            assert rc == 0
        match, mismatch, errors = filecmp.cmpfiles(
            a_dir, b_dir, [p.name for p in a_dir.iterdir()], shallow=False)
        assert not mismatch and not errors

    def test_no_pore_voxels_is_numeric_error(self, tmp_path):
        gray, truth = make_phantom("layered", (8, 8, 8),
                                   layer_thicknesses=(4, 4))
        solid = truth.with_data(np.ones((8, 8, 8), dtype=np.uint8))
        save_volume(solid, tmp_path / "solid.raw")
        rc = main(["analyze", "--labels", str(tmp_path / "solid.raw"),
                   "--out", str(tmp_path / "out")])
        assert rc == 3

    @pytest.mark.parametrize("label, cause", [
        (1, "no pore voxel: no positive thickness values to bin"),
        (0, "no solid voxel: every pore voxel's inscribed ball is unbounded, "
            "so no thickness is finite"),
    ])
    def test_uniform_volume_names_its_cause(self, tmp_path, caplog, label,
                                            cause):
        # all solid and all pore both leave nothing to bin, for opposite
        # reasons: the log says which
        _, truth = make_phantom("layered", (8, 8, 8), layer_thicknesses=(4, 4))
        save_volume(truth.with_data(np.full((8, 8, 8), label, dtype=np.uint8)),
                    tmp_path / "uniform.raw")
        with caplog.at_level(logging.ERROR, logger="drt"):
            rc = main(["analyze", "--labels", str(tmp_path / "uniform.raw"),
                       "--out", str(tmp_path / "out")])
        assert rc == 3
        assert [r.getMessage() for r in caplog.records
                if r.levelno == logging.ERROR] == [cause]

    @pytest.mark.parametrize("value", [np.nan, -1.0, 0.5, 2.0, 255.0])
    def test_label_that_is_no_class_id_exits_2(self, workdir, tmp_path,
                                                caplog, value):
        # the config names two classes, so only 0 and 1 are labels
        _, truth = make_phantom("layered", (8, 8, 8), layer_thicknesses=(4, 4))
        data = truth.data.astype(np.float32)
        data[5, 2, 3] = value
        save_volume(truth.with_data(data, element_encoding="f32"),
                    tmp_path / "labels.raw")
        with caplog.at_level(logging.ERROR, logger="drt"):
            rc = main(["analyze", "--labels", str(tmp_path / "labels.raw"),
                       "--config", str(workdir / "config.json"),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"label {np.float32(value)} is not a class id in [0, 2)" \
            in caplog.text

    def test_working_set_per_voxel(self, tmp_path):
        # analyze holds only what its next step reads: no float64 thickness
        # volume, and no component ids beside the distance transform and
        # the painting. About 13 B/voxel here; it was 29
        _, truth = make_phantom("sphere_pack", (64, 64, 64), n_spheres=40,
                                radius_range=(4.0, 12.0), seed=1)
        save_volume(truth, tmp_path / "labels.raw")
        tracemalloc.start()
        try:
            rc = main(["analyze", "--labels", str(tmp_path / "labels.raw"),
                       "--out", str(tmp_path / "out")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak <= 16 * truth.data.size

    def test_throat_bins_follow_config(self, workdir, segmented, tmp_path):
        cfg = {"throat": {"n_bins": 5}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        main(["analyze", "--labels", str(segmented),
              "--config", str(tmp_path / "cfg.json"),
              "--out", str(tmp_path / "out")])
        lines = (tmp_path / "out" / "throat_distribution.csv").read_text()
        assert len(lines.splitlines()) == 6  # header + one row per bin


    def test_verbose_logs_painting_and_stage_counts(self, workdir, segmented,
                                                    analyzed, tmp_path, capsys,
                                                    caplog):
        argv = ["analyze", "--labels", str(segmented),
                "--config", str(workdir / "config.json")]
        with caplog.at_level(logging.DEBUG, logger="drt"):
            rc = main(["-v"] + argv + ["--out", str(tmp_path / "loud")])
        assert rc == 0
        assert capsys.readouterr().out == f"{tmp_path / 'loud' / 'analysis.json'}\n"
        edt, painted = [r.getMessage() for r in caplog.records
                        if r.name == "drt.morphology"]
        stage = [r.getMessage() for r in caplog.records if r.name == "drt"]
        assert len(stage) == 2
        assert re.fullmatch(r"squared EDT: shape \(\d+, \d+, \d+\), uint\d+, "
                            r"\d+ y shifts, \d+ z shifts", edt)
        pore = int((load_volume(segmented).data == 0).sum())
        assert re.fullmatch(rf"local thickness: {pore} pore voxels, \d+ of "
                            r"their balls painted, \d+ r2 groups, \d+ chord "
                            r"entries in \d+ levels", painted)
        n = json.loads((analyzed / "analysis.json").read_text())["n_components"]
        assert stage[0] == f"analyze: {n} components"
        check_stage_line("analyze", stage[1])
        match, mismatch, errors = filecmp.cmpfiles(
            analyzed, tmp_path / "loud", [p.name for p in analyzed.iterdir()],
            shallow=False)
        assert not mismatch and not errors


class TestClassify:
    def test_direct_arguments(self, tmp_path, capsys):
        rc = main(["classify", "--k", "80", "--pcd", "50", "--pcu", "300",
                   "--swi", "0.10", "--out", str(tmp_path)])
        assert rc == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == "L111"
        results = json.loads((tmp_path / "results.json").read_text())
        assert len(results) == 1
        assert results[0]["code"] == "L111"
        assert results[0]["rule_id"] == 0
        assert results[0]["decoded"]["perm_class"] == "1"

    def test_from_analysis(self, analyzed, tmp_path, capsys):
        rc = main(["classify", "--analysis", str(analyzed / "analysis.json"),
                   "--out", str(tmp_path)])
        assert rc == 0
        results = json.loads((tmp_path / "results.json").read_text())
        analysis = json.loads((analyzed / "analysis.json").read_text())
        assert results[0]["code"] == analysis["rock_type"]["code"]
        assert (tmp_path / "camo_chart.svg").is_file()
        assert (tmp_path / "camo_chart.csv").is_file()

    def test_samples_csv(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text(
            "k,p_cd,p_cu,s_wi,phi,class\n"
            "80,50,300,0.10,0.21,connected\n"
            "30,90,600,0.10,,\n"
            "0.05,50,300,0.10,0.04,micropore\n"
            "80,50,300,0.50,,\n")
        out = tmp_path / "out"
        rc = main(["classify", "--samples", str(samples), "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[:4] == ["L111", "L231", "LD5", "UNCLASSIFIED"]
        results = json.loads((out / "results.json").read_text())
        assert len(results) == 4
        assert results[0]["camo"] is not None
        assert results[1]["camo"] is None
        assert results[3]["nearest_code"] == "L111"

    def test_empty_samples_file(self, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_text("")
        rc = main(["classify", "--samples", str(samples),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert json.loads((tmp_path / "out" / "results.json").read_text()) == []

    @pytest.mark.parametrize("header", ["k,p_cd,p_cu,s_wi",
                                        "perm,pcd,pcu,swi,phi,class"])
    def test_samples_header_is_a_row_without_numbers(self, tmp_path, capsys,
                                                     header):
        samples = tmp_path / "samples.csv"
        samples.write_text(f"{header}\n80,50,300,0.10\n")
        rc = main(["classify", "--samples", str(samples),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == "L111"

    def test_malformed_sample_row_names_file_and_row(self, tmp_path, caplog):
        samples = tmp_path / "samples.csv"
        samples.write_text("k,p_cd,p_cu,s_wi\n\n80,50,300\n")
        rc = main(["classify", "--samples", str(samples),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert (f"{samples}:3: expected k,p_cd,p_cu,s_wi[,phi[,class]], "
                f"got 3 fields") in caplog.text

    def test_malformed_sample_row(self, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_text("80,50,300,0.10\n80,50,300\n")
        rc = main(["classify", "--samples", str(samples),
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("text", ["nan", "inf", "-infinity", "1e400"])
    @pytest.mark.parametrize("column", range(5))
    def test_non_finite_sample_exits_2(self, tmp_path, caplog, text, column):
        # every comparison with NaN is false, so such a sample would meet
        # every bound of the first rule, and NaN is no JSON number
        fields = ["80", "50", "300", "0.10", "0.21", "connected"]
        fields[column] = text
        samples = tmp_path / "samples.csv"
        samples.write_text("80,50,300,0.10\n" + ",".join(fields) + "\n")
        out = tmp_path / "out"
        rc = main(["classify", "--samples", str(samples), "--out", str(out)])
        assert rc == 2
        name = ("k", "p_cd", "p_cu", "s_wi", "phi")[column]
        assert (f"{samples}:2: {name} must be a JSON number that fits a float"
                in caplog.text)
        assert not out.exists()

    @pytest.mark.parametrize("text", ["nan", "inf", "-infinity"])
    @pytest.mark.parametrize("flag", ["--k", "--pcd", "--pcu", "--swi", "--phi"])
    def test_non_finite_flag_exits_2(self, tmp_path, caplog, text, flag):
        values = {"--k": "80", "--pcd": "50", "--pcu": "300", "--swi": "0.10",
                  "--phi": "0.21"} | {flag: text}
        out = tmp_path / "out"
        rc = main(["classify", *(f"{f}={v}" for f, v in values.items()),
                   "--camo-class", "connected", "--out", str(out)])
        assert rc == 2
        assert f"{flag} must be a JSON number that fits a float" in caplog.text
        assert not out.exists()

    def test_requires_exactly_one_source(self, analyzed, tmp_path):
        rc = main(["classify", "--analysis", str(analyzed / "analysis.json"),
                   "--k", "80", "--pcd", "50", "--pcu", "300", "--swi", "0.1",
                   "--out", str(tmp_path)])
        assert rc == 2
        rc = main(["classify", "--out", str(tmp_path)])
        assert rc == 2

    def test_partial_direct_arguments(self, tmp_path):
        rc = main(["classify", "--k", "80", "--out", str(tmp_path)])
        assert rc == 2

    def test_custom_catalog(self, tmp_path):
        catalog = [{"code": "L199", "k_min": 1.0}]
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(catalog))
        rc = main(["classify", "--k", "80", "--pcd", "50", "--pcu", "300",
                   "--swi", "0.10", "--catalog", str(path),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert results[0]["code"] == "L199"

    def test_code_outside_the_limestone_grammar_is_not_decoded(self, tmp_path,
                                                                capsys):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([{"code": "X1", "k_min": 0.0001}]))
        rc = main(["classify", "--k", "80", "--pcd", "50", "--pcu", "300",
                   "--swi", "0.10", "--catalog", str(path),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == "X1"
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert results[0]["code"] == "X1"
        assert results[0]["decoded"] is None

    def test_verbose_logs_one_summary_line(self, tmp_path, capsys, caplog):
        samples = tmp_path / "samples.csv"
        samples.write_text("80,50,300,0.10\n30,90,600,0.10\n80,50,300,0.50\n")
        argv = ["classify", "--samples", str(samples)]
        assert main(argv + ["--out", str(tmp_path / "quiet")]) == 0
        quiet = capsys.readouterr().out
        with caplog.at_level(logging.DEBUG, logger="drt"):
            rc = main(["-v"] + argv + ["--out", str(tmp_path / "loud")])
        assert rc == 0
        assert capsys.readouterr().out == quiet.replace("quiet", "loud")
        lines = [r.getMessage() for r in caplog.records if r.name == "drt"]
        assert len(lines) == 2
        assert lines[0] == "classify: 3 samples, 15 catalog rules, 1 unclassified"
        check_stage_line("classify", lines[1])
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "quiet", tmp_path / "loud",
            ["results.json", "camo_chart.svg", "camo_chart.csv"], shallow=False)
        assert not mismatch and not errors


class TestReport:
    def test_writes_markdown(self, analyzed, capsys):
        rc = main(["report", "--run", str(analyzed)])
        assert rc == 0
        report = (analyzed / "report.md").read_text()
        analysis = json.loads((analyzed / "analysis.json").read_text())
        assert report.startswith("# Digital rock typing report")
        assert "Source: `seg.raw`" in report
        assert f"- Code: {analysis['rock_type']['code']}" in report
        assert "- P_cd:" in report and "- S_wi:" in report

    def test_separate_output_directory(self, analyzed, tmp_path):
        rc = main(["report", "--run", str(analyzed), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "report.md").is_file()

    def test_missing_artifacts(self, tmp_path):
        rc = main(["report", "--run", str(tmp_path)])
        assert rc == 4

    def test_verbose_logs_stage_seconds(self, analyzed, tmp_path, caplog):
        with caplog.at_level(logging.DEBUG, logger="drt"):
            rc = main(["-v", "report", "--run", str(analyzed),
                       "--out", str(tmp_path)])
        assert rc == 0
        [line] = [r.getMessage() for r in caplog.records if r.name == "drt"]
        check_stage_line("report", line)


# analysis.json fields each stage reads, with a value of the wrong JSON
# type; a dotted key names a field inside an object
WRONG_TYPE_FIELDS = {
    "classify": [("porosity", "high"), ("permeability_md", [80.0]),
                 ("p_cd_psi", True), ("p_cu_psi", {}), ("s_wi", "0.1"),
                 ("camo_class", 5), ("modality", "Dual"),
                 ("modality.modality", [1, 2])],
    "report": [("porosity", "high"), ("permeability_md", [80.0]),
               ("p_cd_psi", True), ("p_cu_psi", {}), ("s_wi", "0.1"),
               ("lambda", "steep"), ("modality", "Dual"),
               ("modality.distance", "far"), ("rock_type", "L111"),
               ("rock_type.violations", 3), ("source", {"x": 1}),
               ("camo_class", 5), ("modality.modality", [1, 2]),
               ("modality.archetype", 3), ("rock_type.code", 7),
               ("rock_type.nearest_code", 7), ("rock_type.violations", [3])],
}


class TestMalformedAnalysis:
    @pytest.mark.parametrize("stage, key, value", [
        (stage, key, value) for stage, fields in WRONG_TYPE_FIELDS.items()
        for key, value in fields])
    def test_wrong_json_type_exits_2_naming_file_and_key(
            self, analyzed, tmp_path, caplog, stage, key, value):
        run = tmp_path / "run"
        run.mkdir()
        for name in ("analysis.json", "pc_curve.csv"):
            (run / name).write_bytes((analyzed / name).read_bytes())
        doc = json.loads((run / "analysis.json").read_text())
        *parents, leaf = key.split(".")
        target = doc
        for parent in parents:
            target = target[parent]
        target[leaf] = value
        (run / "analysis.json").write_text(json.dumps(doc))
        if stage == "classify":
            argv = ["classify", "--analysis", str(run / "analysis.json")]
        else:
            argv = ["report", "--run", str(run)]
        rc = main(argv + ["--out", str(tmp_path / "out")])
        assert rc == 2
        # an array names its key, and a wrong entry the key's entry
        assert re.search(rf"analysis\.json: {re.escape(key)}( entry)? must be "
                         rf"a JSON", caplog.text)


    @pytest.mark.parametrize("stage", ["classify", "report"])
    def test_analysis_that_is_not_an_object_exits_2(self, tmp_path, caplog,
                                                    stage):
        run = tmp_path / "run"
        run.mkdir()
        (run / "analysis.json").write_text("[1]")
        (run / "pc_curve.csv").write_text("s_w,pc_psi\n")
        if stage == "classify":
            argv = ["classify", "--analysis", str(run / "analysis.json")]
        else:
            argv = ["report", "--run", str(run)]
        rc = main(argv + ["--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"{run / 'analysis.json'} must hold a JSON object" in caplog.text


def run_chain(workdir, out):
    """The train, segment, analyze, classify, report chain on workdir's data
    and 2 threads; every artifact's bytes by its path under out."""
    common = ["--config", str(workdir / "config.json"), "--threads", "2"]
    assert main(["train", "--volume", str(workdir / "gray.raw"),
                 "--labels", str(workdir / "labels.csv"),
                 "--out", str(out / "model.json"), *common]) == 0
    assert main(["segment", "--volume", str(workdir / "gray.raw"),
                 "--model", str(out / "model.json"),
                 "--out", str(out / "seg.raw"), *common]) == 0
    assert main(["analyze", "--labels", str(out / "seg.raw"),
                 "--out", str(out / "analysis"), *common]) == 0
    assert main(["classify",
                 "--analysis", str(out / "analysis" / "analysis.json"),
                 "--out", str(out / "classify"), *common]) == 0
    assert main(["report", "--run", str(out / "analysis"),
                 "--out", str(out / "report"), *common]) == 0
    return {p.relative_to(out): p.read_bytes()
            for p in out.rglob("*") if p.is_file()}


# sha256 of every artifact of run_chain on the 24^3 workdir data, taken with
# numpy 2.4.6 and scipy 1.17.1 (Python 3.11). A change to any byte shows
# here, not only as a difference between two runs of the same code; under
# other numpy or scipy versions a mismatch is a finding to report, not a
# reason to loosen the pins.
CHAIN_SHA256 = {
    "analysis/analysis.json":
        "6da236da116f951ab4475d251bb4e9f28a2e9d97ef8251d6054b099553852e88",
    "analysis/pc_curve.csv":
        "baad34e5c37e52482ccea97edb380c86d7b44905c50da066ccb53a047d4cc076",
    "analysis/pc_curve.json":
        "a602a883e51d91943e703de0f9e3d9b4062922b3a080ad5ea6c4f9273fe80061",
    "analysis/throat_distribution.csv":
        "cf6de6d18d47c8a7c25a60b534691612149d1e38d016f6b6e29a2d15499d08d6",
    "analysis/throat_distribution.json":
        "836e0426f84e484ee0c47028fda27efb830f41c584032ffbfde55bf791caf68b",
    "classify/camo_chart.csv":
        "cc3c43702ea121fa576d63fdfef4e3f4a1fec6c8551d05ce09617b4e9b20af43",
    "classify/camo_chart.svg":
        "1d32a7e488bc64239f208a18e2c19023890ea73dca9ce2fd8f1a7d0b497a33ef",
    "classify/results.json":
        "4ef467391cc3685b1fb8cec7d301f61b42e0a69535e6c3a7fa5f6ddc14f8ade0",
    "model.json":
        "6d3640feaf46b3a1af5fc5c65139762985083558d2321ea103b697376658cedc",
    "report/report.md":
        "05067e5703985209bbad7984be919aeb0ad3e329b0d407a6d9074856ce3f1a47",
    "seg.json":
        "509a223c71b9ac1c3a3ad530cb94b6a843576c5e6f63df954f70fbfdea8866a0",
    "seg.raw":
        "ec32fa26681249edbaa611732f8553f0e38ca482f0545722666b610b00a40928",
    "seg_confidence.json":
        "41082b39645a8b934917d3d506426958f65fbf8e6726e48def92a3d2851b4a25",
    "seg_confidence.raw":
        "4df2bded8d342bd9e4cda42a47da6b1094ddb8c9f764dd8d3ea74d663f180354",
}


class TestCommonFlags:
    def test_chain_digests_are_pinned(self, workdir, tmp_path):
        got = {path.as_posix(): hashlib.sha256(data).hexdigest()
               for path, data in run_chain(workdir, tmp_path).items()}
        assert got == CHAIN_SHA256

    def test_threads_must_be_positive(self, workdir, tmp_path):
        rc = main(["analyze", "--labels", str(workdir / "truth.raw"),
                   "--out", str(tmp_path / "out"), "--threads", "0"])
        assert rc == 2

    def test_out_of_memory_exits_5(self, workdir, trained, tmp_path,
                                   monkeypatch, caplog):
        def fail(*_):
            raise MemoryError("Unable to allocate 6.25 MiB")

        # in the caller, and in a pool worker, whose error the pool raises
        # again; only the commands that read --threads name it
        monkeypatch.setattr("drt.morphology._paint_chords", fail)
        monkeypatch.setattr("drt.filters.slab_channels", fail)
        runs = [(["analyze", "--labels", str(workdir / "truth.raw")],
                 "analyze ran out of memory: Unable to allocate 6.25 MiB"),
                (["segment", "--volume", str(workdir / "gray.raw"),
                  "--model", str(trained), "--threads", "2"],
                 "segment ran out of memory at --threads 2: "
                 "Unable to allocate 6.25 MiB")]
        for argv, message in runs:
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="drt"):
                rc = main(argv + ["--out", str(tmp_path / "out")])
            assert rc == 5
            assert [r.getMessage() for r in caplog.records
                    if r.levelno >= logging.ERROR] == [message]
            assert all(r.exc_info is None for r in caplog.records)

    def test_thread_count_does_not_change_output(self, workdir, tmp_path):
        # 24 planes and a halo of 6: 1, 2 and 4 slabs
        dirs = []
        for threads in ("1", "2", "4"):
            out = tmp_path / f"t{threads}"
            out.mkdir()
            common = ["--config", str(workdir / "config.json"), "--threads", threads]
            assert main(["train", "--volume", str(workdir / "gray.raw"),
                         "--labels", str(workdir / "labels.csv"),
                         "--out", str(out / "model.json"), *common]) == 0
            assert main(["segment", "--volume", str(workdir / "gray.raw"),
                         "--model", str(out / "model.json"),
                         "--out", str(out / "seg.raw"), *common]) == 0
            assert main(["analyze", "--labels", str(out / "seg.raw"),
                         "--out", str(out / "run"), *common]) == 0
            dirs.append(out)
        for sub in (".", "run"):
            names = [p.name for p in (dirs[0] / sub).iterdir() if p.is_file()]
            for other in dirs[1:]:
                match, mismatch, errors = filecmp.cmpfiles(
                    dirs[0] / sub, other / sub, names, shallow=False)
                assert not mismatch and not errors

    def test_piece_budget_does_not_change_output(self, workdir, tmp_path):
        # drt.volume.PIECE sizes every pass that runs in pieces: smoothing,
        # binning, the leaf search, the EDT and the painting
        want = run_chain(workdir, tmp_path / "default")
        for piece in PIECES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr("drt.volume.PIECE", piece)
                got = run_chain(workdir, tmp_path / str(piece))
            assert got.keys() == want.keys()
            assert [str(p) for p in want if got[p] != want[p]] == [], piece

    def test_threads_beyond_planes_cap_the_pool(self, tmp_path, monkeypatch, caplog):
        gray, truth = make_phantom("sphere_pack", (16, 16, 8), seed=3,
                                   n_spheres=4, radius_range=(2.0, 3.5),
                                   noise_sigma=8.0)
        save_volume(gray, tmp_path / "gray.raw")
        zyx = np.argwhere(np.ones(truth.data.shape, dtype=bool))[::7]
        (tmp_path / "labels.csv").write_text("".join(
            f"{x},{y},{z},{truth.data[z, y, x]}\n" for z, y, x in zyx))
        # a halo of one plane allows one slab per plane
        (tmp_path / "config.json").write_text(json.dumps({
            "feature_bank": {"sigmas_vox": [0.25, 0.3]},
            "forest": {"n_trees": 4}}))
        pools = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", Recording)
        for threads in ("1", "64"):
            out = tmp_path / f"t{threads}"
            out.mkdir()
            common = ["--config", str(tmp_path / "config.json"), "--threads", threads]
            with caplog.at_level(logging.DEBUG, logger="drt"):
                assert main(["train", "--volume", str(tmp_path / "gray.raw"),
                             "--labels", str(tmp_path / "labels.csv"),
                             "--out", str(out / "model.json"), *common]) == 0
                assert main(["segment", "--volume", str(tmp_path / "gray.raw"),
                             "--model", str(out / "model.json"),
                             "--out", str(out / "seg.raw"), *common]) == 0
        assert pools == [1, 1, 8, 8]
        assert [r.getMessage().split(", ")[2] for r in caplog.records
                if r.name == "drt.filters"] == ["1 workers"] * 2 + ["8 workers"] * 2
        for name in ("model.json", "seg.raw", "seg_confidence.raw"):
            assert ((tmp_path / "t1" / name).read_bytes()
                    == (tmp_path / "t64" / name).read_bytes())

    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_sigma_above_min_dims_half_exits_2(self, workdir, trained, tmp_path,
                                               threads):
        # 13 > 24 / 2: the whole volume is too thin, whatever the slabs
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"feature_bank": {"sigmas_vox": [1.0, 13.0]}}))
        assert main(["train", "--volume", str(workdir / "gray.raw"),
                     "--labels", str(workdir / "labels.csv"),
                     "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "m.json"), "--threads", threads]) == 2
        doc = json.loads(trained.read_text())
        doc["feature_bank"]["sigmas_vox"] = [1.0, 13.0]
        (tmp_path / "model.json").write_text(json.dumps(doc))
        assert main(["segment", "--volume", str(workdir / "gray.raw"),
                     "--model", str(tmp_path / "model.json"),
                     "--out", str(tmp_path / "s.raw"), "--threads", threads]) == 2

    def test_sigma_of_half_the_thinnest_axis_is_accepted(self, workdir, tmp_path):
        # 12 = 24 / 2 reaches 36 planes each way, past the whole volume
        (tmp_path / "cfg.json").write_text(json.dumps({
            "feature_bank": {"sigmas_vox": [1.0, 12.0]},
            "forest": {"n_trees": 2}}))
        common = ["--config", str(tmp_path / "cfg.json"), "--threads", "4"]
        assert main(["train", "--volume", str(workdir / "gray.raw"),
                     "--labels", str(workdir / "labels.csv"),
                     "--out", str(tmp_path / "m.json"), *common]) == 0
        assert main(["segment", "--volume", str(workdir / "gray.raw"),
                     "--model", str(tmp_path / "m.json"),
                     "--out", str(tmp_path / "s.raw"), *common]) == 0

    def test_unknown_config_section(self, workdir, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"mystery": {}}))
        rc = main(["analyze", "--labels", str(workdir / "truth.raw"),
                   "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_unknown_config_key(self, workdir, tmp_path):
        cfg = {"throat": {"bins": 5}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        rc = main(["analyze", "--labels", str(workdir / "truth.raw"),
                   "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("flag", ["--config", "--samples"])
    def test_non_utf8_input_exits_2(self, tmp_path, flag):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe{}\n")
        source = (["--k", "80", "--pcd", "50", "--pcu", "300", "--swi", "0.1"]
                  if flag == "--config" else [])
        proc = subprocess.run(
            [sys.executable, "-m", "drt.cli", "classify", *source, flag,
             str(bad), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert str(bad) in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_invalid_config_json(self, workdir, tmp_path):
        (tmp_path / "cfg.json").write_text("{oops")
        rc = main(["analyze", "--labels", str(workdir / "truth.raw"),
                   "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2



# every config key: its section, a value other than the default, and the
# PipelineConfig field (dotted into feature_bank and forest) it sets
CONFIG_KEYS = [
    ("feature_bank", "sigmas_vox", [1.0, 3.0], "feature_bank.sigmas_vox", (1.0, 3.0)),
    ("feature_bank", "include_raw", False, "feature_bank.include_raw", False),
    ("feature_bank", "boundary_mode", "clamp", "feature_bank.boundary_mode", "clamp"),
    ("forest", "n_trees", 7, "forest.n_trees", 7),
    ("forest", "max_depth", 5, "forest.max_depth", 5),
    ("forest", "min_samples_split", 3, "forest.min_samples_split", 3),
    ("forest", "features_per_split", 2, "forest.features_per_split", 2),
    ("forest", "bag_fraction", 0.5, "forest.bag_fraction", 0.5),
    ("segmentation", "class_names", ["a", "b"], "class_names", ["a", "b"]),
    ("segmentation", "pore_classes", [1], "pore_classes", (1,)),
    ("segmentation", "micropore_classes", [2], "micropore_classes", (2,)),
    ("segmentation", "connectivity", 6, "connectivity", 6),
    ("throat", "n_bins", 8, "n_bins", 8),
    ("throat", "cutoffs_um", [5.0, 50.0], "cutoffs_um", (5.0, 50.0)),
    ("petro", "micro_weight", 0.25, "micro_weight", 0.25),
    ("petro", "epsilon", 0.2, "epsilon", 0.2),
    ("camo", "relations_path", "r.json", "camo_relations_path", "r.json"),
    ("camo", "catalog_path", "c.json", "catalog_path", "c.json"),
    ("capillary", "c", 2.0, "pfunction_c", 2.0),
    ("capillary", "e", 0.7, "pfunction_e", 0.7),
    ("capillary", "s_wi", 0.2, "s_wi", 0.2),
    ("capillary", "p_cu_psi", 100.0, "p_cu_psi", 100.0),
    ("capillary", "p_cu_ratio", 4.0, "p_cu_ratio", 4.0),
    ("capillary", "s_w_anchor", 0.5, "s_w_anchor", 0.5),
]


class TestConfigKeys:
    @pytest.mark.parametrize("section, key, value, field, parsed", CONFIG_KEYS)
    def test_each_key_sets_its_own_field(self, section, key, value, field,
                                         parsed):
        want = PipelineConfig()
        name, _, sub = field.partition(".")
        if sub:
            parsed = dataclasses.replace(getattr(want, name), **{sub: parsed})
        assert getattr(want, name) != parsed  # the value is not the default
        want = dataclasses.replace(want, **{name: parsed})
        assert config_from_json_dict({section: {key: value}}) == want

    @pytest.mark.parametrize("section", dict.fromkeys(s for s, *_ in CONFIG_KEYS))
    def test_unknown_key_names_its_section(self, section):
        with pytest.raises(ConfigError, match=re.escape(
                f"unknown keys in config section {section!r}: ['zz']")):
            config_from_json_dict({section: {"zz": 1}})
        with pytest.raises(ConfigError, match=re.escape(
                f"config section {section!r} must be an object")):
            config_from_json_dict({section: []})


# config values of the wrong JSON type, each of which int() or bool() used to
# truncate, parse or flip
WRONG_TYPE_CONFIG = [
    ("throat", "n_bins", 32.5, "integer"),
    ("throat", "n_bins", "32", "integer"),
    ("segmentation", "connectivity", 26.0, "integer"),
    ("segmentation", "pore_classes", [0.9], "integer"),
    ("segmentation", "pore_classes", "01", "array"),
    ("segmentation", "micropore_classes", [True], "integer"),
    ("forest", "n_trees", 2.7, "integer"),
    ("forest", "max_depth", True, "integer"),
    ("forest", "min_samples_split", "2", "integer"),
    ("forest", "features_per_split", 1.5, "integer"),
    ("feature_bank", "include_raw", "false", "boolean"),
    ("feature_bank", "boundary_mode", ["mirror"], "string"),
    # float values and arrays, which float() and tuple() used to coerce
    ("throat", "cutoffs_um", "12", "array"),
    ("throat", "cutoffs_um", [10, "100"], "number"),
    ("feature_bank", "sigmas_vox", "12", "array"),
    ("feature_bank", "sigmas_vox", [1.0, True], "number"),
    ("forest", "bag_fraction", "0.5", "number"),
    ("petro", "micro_weight", True, "number"),
    ("petro", "epsilon", "0.1", "number"),
    ("capillary", "c", None, "number"),
    ("capillary", "e", "0.5", "number"),
    ("capillary", "s_wi", [0.1], "number"),
    ("capillary", "p_cu_psi", "300", "number"),
    ("capillary", "p_cu_ratio", False, "number"),
    ("capillary", "s_w_anchor", "0.5", "number"),
    # paths, which open() used to reject with a traceback
    ("camo", "catalog_path", 5, "string"),
    ("camo", "relations_path", ["camo.json"], "string"),
]

# number config values given as JSON integers that float() cannot hold
HUGE_INTEGER_CONFIG = [
    ("forest", "bag_fraction", 10**400),
    ("feature_bank", "sigmas_vox", [1, 10**400]),
    ("throat", "cutoffs_um", [10, 10**400]),
    ("capillary", "c", 10**400),
]


class TestConfigTypes:
    @pytest.mark.parametrize("section, key, value, kind", WRONG_TYPE_CONFIG)
    def test_is_a_config_error_before_any_stage_work(self, tmp_path, caplog,
                                                     section, key, value, kind):
        message = rf"{key}( entry)? must be a JSON {kind}, got"
        with pytest.raises(ConfigError, match=message):
            config_from_json_dict({section: {key: value}})
        # the labels volume does not exist: reading it would exit 4
        (tmp_path / "cfg.json").write_text(json.dumps({section: {key: value}}))
        rc = main(["analyze", "--labels", str(tmp_path / "missing.raw"),
                   "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert re.search(message, caplog.text)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("throat", "cutoffs_um", [5, 50]),
        ("feature_bank", "sigmas_vox", [1, 2.5]),
        ("petro", "micro_weight", 1),
        ("capillary", "p_cu_psi", None),
        ("capillary", "s_w_anchor", None),
        ("camo", "catalog_path", None),
        ("camo", "relations_path", None),
    ])
    def test_integers_are_numbers_and_optional_values_may_be_null(
            self, section, key, value):
        config_from_json_dict({section: {key: value}})

    @pytest.mark.parametrize("field", ["pore_classes", "micropore_classes"])
    @pytest.mark.parametrize("value", [0.7, "0", 1.0])
    def test_class_ids_are_integers(self, field, value):
        # the config holds the class ids that binary_mask accepts, no others
        with pytest.raises(ConfigError, match=f"{field} must hold integer class ids"):
            PipelineConfig(**{field: (value,)})

    @pytest.mark.parametrize("field", ["pfunction_c", "p_cu_psi", "p_cu_ratio"])
    def test_infinite_capillary_values_are_config_errors(self, field):
        # refused at construction, not in analyze after the EDT and local
        # thickness, where the pressures they give stop being finite
        with pytest.raises(ConfigError, match="and finite, got inf"):
            PipelineConfig(**{field: float("inf")})

    def test_numpy_integer_class_ids_are_accepted(self):
        cfg = PipelineConfig(pore_classes=(np.int64(0),),
                             micropore_classes=(np.int64(1),))
        assert cfg.pore_classes == (0,) and cfg.micropore_classes == (1,)
        assert type(cfg.pore_classes[0]) is int

    def test_integer_bag_fraction_is_stored_as_a_float(self):
        cfg = config_from_json_dict({"forest": {"bag_fraction": 1}})
        assert repr(cfg.forest.bag_fraction) == "1.0"

    @pytest.mark.parametrize("section, key, value", HUGE_INTEGER_CONFIG)
    def test_integer_too_large_for_a_float_exits_2(self, tmp_path, caplog,
                                                   section, key, value):
        message = rf"{key}( entry)? must be a JSON number that fits a float"
        with pytest.raises(ConfigError, match=message):
            config_from_json_dict({section: {key: value}})
        (tmp_path / "cfg.json").write_text(json.dumps({section: {key: value}}))
        rc = main(["classify", "--k", "80", "--pcd", "50", "--pcu", "300",
                   "--swi", "0.1", "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert re.search(message, caplog.text)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["catalog_path", "relations_path"])
    def test_camo_path_of_the_wrong_type_exits_2_in_classify(self, tmp_path,
                                                             caplog, key):
        (tmp_path / "cfg.json").write_text(json.dumps({"camo": {key: 5}}))
        rc = main(["classify", "--k", "80", "--pcd", "50", "--pcu", "300",
                   "--swi", "0.1", "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"{key} must be a JSON string, got 5" in caplog.text


class TestConsoleScript:
    def test_analyze_does_not_load_scipy_signal(self, workdir, tmp_path):
        code = ("import sys; from drt.cli import main; "
                "rc = main(sys.argv[1:]); "
                "sys.exit(rc or 'scipy.signal' in sys.modules)")
        proc = subprocess.run(
            [sys.executable, "-c", code, "analyze",
             "--labels", str(workdir / "truth.raw"),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("stage", ["segment", "analyze"])
    def test_segment_and_analyze_do_not_load_numpy_ma(self, workdir, trained,
                                                      tmp_path, stage):
        # np.unique without a return flag imports numpy.ma to test for a mask;
        # numpy 1.x imports numpy.ma with numpy itself, so there is no cost
        bare = subprocess.run([sys.executable, "-c",
                               "import sys, numpy; "
                               "sys.exit('numpy.ma' in sys.modules)"])
        if bare.returncode:
            pytest.skip("importing numpy already loads numpy.ma")
        code = ("import sys; from drt.cli import main; "
                "rc = main(sys.argv[1:]); "
                "sys.exit(rc or 'numpy.ma' in sys.modules)")
        argv = (["segment", "--volume", str(workdir / "gray.raw"),
                 "--model", str(trained), "--out", str(tmp_path / "seg.raw")]
                if stage == "segment" else
                ["analyze", "--labels", str(workdir / "truth.raw"),
                 "--out", str(tmp_path / "out")])
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("stage", ["classify", "report"])
    def test_classify_and_report_do_not_load_scipy(self, analyzed, tmp_path,
                                                   stage):
        code = ("import sys; from drt.cli import main; "
                "rc = main(sys.argv[1:]); "
                "sys.exit(rc or 'scipy' in sys.modules)")
        argv = (["classify", "--analysis", str(analyzed / "analysis.json")]
                if stage == "classify" else ["report", "--run", str(analyzed)])
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv, "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("command, reads", [
        ("train", {"--config", "--threads", "--seed"}),
        ("segment", {"--threads"}),
        ("analyze", {"--config"}),
        ("classify", {"--config"}),
        ("report", set()),
    ])
    def test_help_names_the_common_options_it_reads(self, capsys, command,
                                                    reads):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for option in ("--config", "--threads", "--seed"):
            unused = re.search(rf"{option} \S+ not used by this command", text)
            assert (unused is None) == (option in reads), option

    def test_help_runs(self):
        proc = subprocess.run([sys.executable, "-m", "drt.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "train" in proc.stdout
        assert "classify" in proc.stdout


# runs main() on the arguments, if any, then prints the loaded modules
_LOADED = """\
import json, sys
from drt.cli import main
rc = 0
if sys.argv[1:]:
    try:
        rc = main(sys.argv[1:])
    except SystemExit as exc:
        rc = exc.code
print(json.dumps(sorted(sys.modules)))
sys.exit(rc)
"""


def loaded_modules(*argv) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", _LOADED, *map(str, argv)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def drt_layers(modules: set[str]) -> set[str]:
    return {m.split(".")[1] for m in modules if m.startswith("drt.")}


class TestModuleLoads:
    """Each subcommand loads only the layers it runs."""

    @pytest.mark.parametrize("argv", [(), ("--help",)])
    def test_import_and_help_load_no_numpy(self, argv):
        modules = loaded_modules(*argv)
        assert "numpy" not in modules
        assert drt_layers(modules) == {"cli", "config", "errors", "fileio"}

    def test_report_loads_only_cli_and_its_helpers(self, analyzed, tmp_path):
        modules = loaded_modules("report", "--run", analyzed,
                                 "--out", tmp_path)
        assert not {"numpy", "scipy"} & modules
        assert drt_layers(modules) == {"cli", "config", "errors", "fileio"}

    def test_classify_loads_no_numeric_layer(self, analyzed, tmp_path):
        modules = loaded_modules("classify", "--analysis",
                                 analyzed / "analysis.json", "--out", tmp_path)
        assert not {"numpy", "scipy"} & modules
        assert not {"filters", "forest", "morphology", "volume", "capillary",
                    "rng", "phantoms"} & drt_layers(modules)

    @pytest.mark.parametrize("stage", ["train", "segment"])
    def test_train_and_segment_load_no_analysis_layer(self, workdir, trained,
                                                      tmp_path, stage):
        if stage == "train":
            argv = ("train", "--volume", workdir / "gray.raw",
                    "--labels", workdir / "labels.csv",
                    "--config", workdir / "config.json",
                    "--out", tmp_path / "model.json")
        else:
            argv = ("segment", "--volume", workdir / "gray.raw",
                    "--model", trained, "--out", tmp_path / "seg.raw")
        modules = loaded_modules(*argv)
        layers = drt_layers(modules)
        assert {"filters", "forest", "volume"} <= layers
        assert not {"morphology", "petro", "rocktype", "capillary",
                    "phantoms"} & layers
        # the smoothing kernel is called without the scipy.ndimage package
        assert "scipy.ndimage" not in modules

    def test_analyze_loads_no_segmentation_layer(self, segmented, workdir,
                                                 tmp_path):
        modules = loaded_modules(
            "analyze", "--labels", segmented,
            "--config", workdir / "config.json", "--out", tmp_path)
        layers = drt_layers(modules)
        assert {"morphology", "petro", "capillary", "rocktype"} <= layers
        assert not {"filters", "forest", "rng", "phantoms"} & layers
        # label and the feature transform are called without the package
        assert "scipy.ndimage" not in modules
