"""Seeded workload generators and output oracles for the drt benchmark.

Every generator is a pure function of its seed and parameters: the same
seed writes byte-identical input files. The oracles recompute each
checked output from the generated inputs without calling the code under
test.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from drt.phantoms import DEFAULT_INTENSITIES
from drt.rocktype import default_catalog
from drt.volume import save_volume, Volume, VolumeHeader

# Workload parameters. The reasons live in BENCHMARK.json and README.md.
WORKLOADS = {
    "pipeline_96": {
        "stages": ["train", "segment", "analyze", "classify", "report"],
        "dims": (96, 96, 96), "n_spheres": 84, "radius_range": (4.0, 9.0),
        "noise_sigma": 60.0, "labels_per_class": 500,
    },
    "analyze_coarse_96": {
        "stages": ["analyze"],
        "dims": (96, 96, 96), "n_spheres": 60, "radius_range": (6.0, 16.0),
    },
}

SEG_ACCURACY_MIN = 0.98

def sphere_pack(dims, seed: int, n_spheres: int, radius_range) -> np.ndarray:
    """Truth labels (nz, ny, nx): pore spheres (0) in a solid matrix (1).

    Radii are the midpoints of ``n_spheres`` equal strata of the range, the
    same for every seed; only the centres come from the seed. drt's own
    ``sphere_pack`` phantom draws radii independently, which adds
    seed-to-seed variation to the cost of local thickness on top of the
    timing noise the benchmark has to resolve.
    """
    nx, ny, nz = dims
    lo, hi = radius_range
    radii = lo + (hi - lo) * (np.arange(n_spheres) + 0.5) / n_spheres
    rng = np.random.default_rng([seed, 0])
    labels = np.ones((nz, ny, nx), dtype=np.uint8)
    for r in radii:
        c = [rng.uniform(r, n - 1 - r) for n in (nz, ny, nx)]
        box = [slice(max(0, math.floor(ci - r)), min(n, math.ceil(ci + r) + 1))
               for ci, n in zip(c, (nz, ny, nx))]
        zz, yy, xx = np.ogrid[box[0], box[1], box[2]]
        inside = (zz - c[0]) ** 2 + (yy - c[1]) ** 2 + (xx - c[2]) ** 2 <= r * r
        labels[tuple(box)][inside] = 0
    return labels


def make_volume_inputs(out_dir: Path, seed: int, params: dict) -> dict:
    """Write the train and segment inputs; return the truth and file names.

    The inputs are the grayscale volume of a sphere pack (class intensities
    plus Gaussian noise) and a labels CSV of ``labels_per_class`` random
    voxels per class.
    """
    dims = params["dims"]
    truth = sphere_pack(dims, seed, params["n_spheres"], params["radius_range"])
    rng = np.random.default_rng([seed, 1])
    gray = np.asarray(DEFAULT_INTENSITIES[:2], dtype=np.float32)[truth]
    gray += rng.normal(0.0, params["noise_sigma"], truth.shape).astype(np.float32)
    save_volume(Volume(VolumeHeader(dims, 1.0, "grayscale", "f32"), gray),
                out_dir / "gray.raw")
    lines = ["x,y,z,class_id"]
    for class_id in (0, 1):
        flat = np.flatnonzero(truth.ravel() == class_id)
        picked = np.sort(rng.choice(flat, params["labels_per_class"], replace=False))
        z, rem = np.divmod(picked, truth.shape[1] * truth.shape[2])
        y, x = np.divmod(rem, truth.shape[2])
        lines += [f"{a},{b},{c},{class_id}" for a, b, c in zip(x, y, z)]
    (out_dir / "labels.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"truth": truth, "files": ["gray.raw", "gray.json", "labels.csv"]}


def make_labels_inputs(out_dir: Path, seed: int, params: dict) -> dict:
    """Write the truth labels of a sphere pack as a label volume."""
    dims = params["dims"]
    truth = sphere_pack(dims, seed, params["n_spheres"], params["radius_range"])
    save_volume(Volume(VolumeHeader(dims, 1.0, "label", "u8"), truth),
                out_dir / "labels.raw")
    return {"truth": truth, "files": ["labels.raw", "labels.json"]}


def make_inputs(out_dir: Path, seed: int, params: dict) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    if "segment" in params["stages"]:
        return make_volume_inputs(out_dir, seed, params)
    return make_labels_inputs(out_dir, seed, params)


def labels_path(inputs_dir: Path) -> Path:
    """The label volume analyze reads: generated labels, else the segmentation.

    A relative path resolves in the repetition directory.
    """
    generated = inputs_dir / "labels.raw"
    return generated if generated.exists() else Path("seg.raw")


def stage_argv(stage: str, inputs_dir: Path) -> list[str]:
    """CLI arguments of one stage, relative to the repetition directory."""
    common = ["--threads", "2"]
    if stage == "train":
        return ["train", "--volume", str(inputs_dir / "gray.raw"),
                "--labels", str(inputs_dir / "labels.csv"),
                "--out", "model.json", "--seed", "0", *common]
    if stage == "segment":
        return ["segment", "--volume", str(inputs_dir / "gray.raw"),
                "--model", "model.json", "--out", "seg.raw", *common]
    if stage == "analyze":
        return ["analyze", "--labels", str(labels_path(inputs_dir)), "--out", "run",
                *common]
    if stage == "classify":
        return ["classify", "--analysis", "run/analysis.json",
                "--out", "run/classify", *common]
    if stage == "report":
        return ["report", "--run", "run", *common]
    raise ValueError(f"unknown stage {stage!r}")


STAGE_ARTIFACTS = {
    "train": ["model.json"],
    "segment": ["seg.raw", "seg.json", "seg_confidence.raw"],
    "analyze": ["run/analysis.json", "run/pc_curve.csv", "run/throat_distribution.csv"],
    "classify": ["run/classify/results.json", "run/classify/camo_chart.svg"],
    "report": ["run/report.md"],
}

# Artifacts whose sha256 goes into the run manifest and must repeat exactly.
DIGESTED = ["model.json", "seg.raw", "seg_confidence.raw", "run/analysis.json",
            "run/classify/results.json"]


# ---------------------------------------------------------------------------
# oracles


def read_u8_volume(path: Path, shape) -> np.ndarray:
    return np.fromfile(path, dtype=np.uint8).reshape(shape)


def seg_accuracy(seg_path: Path, truth: np.ndarray) -> float:
    """Fraction of voxels in the segmented volume equal to the truth."""
    seg = read_u8_volume(seg_path, truth.shape)
    return float(np.count_nonzero(seg == truth)) / truth.size


def pore_fraction(labels_path: Path, shape) -> float:
    """Pore (class 0) fraction recounted straight from the raw bytes."""
    labels = read_u8_volume(labels_path, shape)
    return np.count_nonzero(labels == 0) / labels.size


def oracle_code(k: float, p_cd: float, p_cu: float, s_wi: float,
                catalog=None) -> tuple[str, int | None]:
    """First catalog row whose every bound holds, in catalog order.

    Written from the catalog's stated semantics (half-open [min, max)
    bounds on k and s_wi, strict pressure comparisons), not from
    drt.rocktype.classify. Rows are taken as they are, so a row shadowed
    by an identical earlier row is never returned.
    """
    rules = default_catalog() if catalog is None else catalog
    for idx, rule in enumerate(rules):
        ok = ((rule.k_min is None or k >= rule.k_min)
              and (rule.k_max is None or k < rule.k_max)
              and (rule.swi_min is None or s_wi >= rule.swi_min)
              and (rule.swi_max is None or s_wi < rule.swi_max))
        for value, pred in ((p_cd, rule.p_cd), (p_cu, rule.p_cu)):
            if pred is not None:
                op, bound = pred
                ok = ok and (value < bound if op == "lt" else value > bound)
        if ok:
            return rule.code, idx
    return "UNCLASSIFIED", None
