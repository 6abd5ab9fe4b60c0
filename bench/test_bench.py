"""Tests of the benchmark itself: generators, the classify oracle, a smoke run.

    python -m pytest bench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from drt.rocktype import classify, default_catalog  # noqa: E402

TINY = {
    "pipeline_96": {"dims": (32, 32, 32), "n_spheres": 12, "radius_range": (3.0, 6.0),
                    "noise_sigma": 30.0, "labels_per_class": 60},
    "analyze_coarse_96": {"dims": (32, 32, 32), "n_spheres": 8, "radius_range": (3.0, 6.0)},
}


def _digests(workload, seed, tmp_path):
    params = {**wl.WORKLOADS[workload], **TINY[workload]}
    out = tmp_path / f"{workload}-{seed}-{len(list(tmp_path.iterdir()))}"
    files = wl.make_inputs(out, seed, params)["files"]
    return {f: run.sha256(out / f) for f in files}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    first = _digests(workload, 5, tmp_path)
    assert _digests(workload, 5, tmp_path) == first
    assert _digests(workload, 6, tmp_path) != first


def test_classify_oracle_agrees_with_rule_engine():
    catalog = default_catalog()
    # k from 0.03 mD (below the LD5 cut) to 1000 mD; pressures and s_wi
    # straddle every bound of the catalog
    rng = np.random.default_rng(3)
    lo, hi = np.log([[10 ** -1.5, 5.0, 100.0], [1e3, 2000.0, 5000.0]])
    k_pcd_pcu = np.exp(rng.uniform(lo, hi, (5000, 3)))
    s_wi = rng.uniform(0.05, 0.40, 5000)
    rows = [(*map(float, r), float(s)) for r, s in zip(k_pcd_pcu, s_wi)]
    # fixed rows: a catalog match, a gap in the catalog, and the LD5 cut
    rows += [(100.0, 50.0, 300.0, 0.1), (100.0, 150.0, 300.0, 0.1),
             (0.05, 50.0, 300.0, 0.1)]
    codes = set()
    for row in rows:
        res = classify(row[0], row[1:], catalog)
        assert wl.oracle_code(*row, catalog) == (res.code, res.rule_id), row
        codes.add(res.code)
    assert {"LD5", "UNCLASSIFIED", "L111"} <= codes
    assert "L382" not in codes  # the catalog is taken as it is: L372 shadows it


def _declared(kind):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("workload,trace", [
    ("pipeline_96", 1), ("analyze_coarse_96", 0), ("analyze_coarse_96", 1)])
def test_tiny_smoke_run_has_no_failures(workload, trace):
    result, lines = run.measure(workload, 2, 0, trace, TINY[workload])
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], lines
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == _declared(kind)
