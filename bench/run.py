#!/usr/bin/env python3
"""drt benchmark: seeded workloads through the real CLI, one process per stage.

    python3 bench/run.py --workload pipeline_96 --seed 1 --seconds 60 --trace 0

Paths resolve from this file, so any working directory works. Each stage
runs as a fresh ``python -m drt.cli`` process against ``src/``, as a user
runs it, and every output is checked against an oracle. With
``--trace 0`` the chain repeats until ``--seconds`` is spent and the
end-to-end metrics are medians over those repetitions. With ``--trace 1``
one untraced and one traced chain run, and the per-layer metrics come
from the traced one. A table goes to standard output; its last line is
the JSON result.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 40
PROBE_REPEATS = 3
# The memory probe: random reads from an array far larger than the CPU
# caches, timed before every stage process and set-up. The host's speed for
# this work drifts by up to 1.5x within minutes, because other tenants share
# the memory system, and the stages slow with it. The bounded times are
# divided by the run's host factor, the probe's mean time over PROBE_REF_S.
PROBE_ELEMENTS = 16_000_000  # float64, 128 MB
PROBE_READS = 2_000_000
PROBE_GATHERS_PER_STAGE = 6
PROBE_REF_S = 0.045
LAYERS = ("cli", "volume", "filters", "forest", "morphology", "petro",
          "capillary", "rocktype")
STAGES = ("train", "segment", "analyze", "classify", "report")
# petro and capillary self times keep the short names the layer map uses
SELF_NAMES = {layer: f"{layer}.self_s" for layer in LAYERS}
SELF_NAMES.update({"petro": "petro.s", "capillary": "capillary.s"})


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_process(cmd: list[str], cwd: Path, log_stem: Path) -> tuple[float, float, float, int]:
    """Wall seconds, CPU seconds, peak RSS in MB (from the child's own rusage), exit code."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode


@dataclasses.dataclass
class Rep:
    """One pass of a workload's CLI chain and its checked outputs."""

    dir: Path
    stages: dict = dataclasses.field(default_factory=dict)  # stage -> (wall, cpu, rss, exit)
    failures: dict = dataclasses.field(default_factory=dict)  # stage -> [reason]
    digests: dict = dataclasses.field(default_factory=dict)
    quality: dict = dataclasses.field(default_factory=dict)
    spans: list = dataclasses.field(default_factory=list)  # (stage, spans) when traced

    @property
    def wall_s(self) -> float:
        return sum(s[0] for s in self.stages.values())

    @property
    def peak_rss_mb(self) -> float:
        return max(s[2] for s in self.stages.values())

    def fail(self, stage: str, reason: str) -> None:
        self.failures.setdefault(stage, []).append(reason)


class Workload:
    def __init__(self, name: str, seed: int, probe: MemoryProbe,
                 params: dict | None = None):
        import workloads as wl  # imports drt, so only after main() checked src/
        self.wl = wl
        self.name = name
        self.seed = seed
        self.params = {**wl.WORKLOADS[name], **(params or {})}
        self.stages = self.params["stages"]
        self.probe = probe
        self.probe_s: list[float] = []  # memory probe times of this run

    def setup(self, run_dir: Path) -> list[float]:
        """Generate the inputs until SETUP_SECONDS are spent, at least
        SETUP_REPEATS times; every copy must be byte-identical to the first."""
        times, digests = [], []
        while (len(times) < SETUP_REPEATS
               or sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX_REPEATS):
            out = run_dir / f"inputs{min(len(times), 1)}"
            self.probe_s += self.probe(1)
            t0 = time.perf_counter()
            inputs = self.wl.make_inputs(out, self.seed, self.params)
            times.append(time.perf_counter() - t0)
            digests.append({f: sha256(out / f) for f in inputs["files"]})
            if len(times) == 1:
                self.inputs, self.inputs_dir = inputs, out
        if any(d != digests[0] for d in digests):
            raise RuntimeError(f"{self.name}: inputs differ between setups of seed {self.seed}")
        self.input_digests = digests[0]
        return times

    def run_chain(self, rep_dir: Path, traced: bool, check: bool = True) -> Rep:
        """Run every stage once; with ``check`` run the oracles on the outputs.

        Repetitions left unchecked are held to the checked one by their
        artifact digests (check_digests).
        """
        rep = Rep(rep_dir)
        rep_dir.mkdir(parents=True)
        for stage in self.stages:
            argv = self.wl.stage_argv(stage, self.inputs_dir)
            span_file = rep_dir / f"{stage}.spans.json"
            cmd = ([sys.executable, str(BENCH / "trace_cli.py"), str(span_file), *argv]
                   if traced else [sys.executable, "-m", "drt.cli", *argv])
            self.probe_s += self.probe(PROBE_GATHERS_PER_STAGE)
            wall, cpu, rss, code = run_process(cmd, rep_dir, rep_dir / stage)
            rep.stages[stage] = (wall, cpu, rss, code)
            if code != 0:
                rep.fail(stage, f"exit code {code}")
            for artifact in self.wl.STAGE_ARTIFACTS[stage]:
                if not (rep_dir / artifact).is_file():
                    rep.fail(stage, f"missing {artifact}")
            if rep.failures:
                break
            if traced:
                rep.spans.append((stage, json.loads(span_file.read_text())["spans"]))
        for stage in self.stages:
            if stage not in rep.stages:
                rep.fail(stage, "not run: an earlier stage failed")
        if check and not rep.failures:
            self.check_outputs(rep)
        rep.digests = {a: sha256(rep_dir / a) for a in self.wl.DIGESTED
                       if (rep_dir / a).is_file()}
        return rep

    def check_outputs(self, rep: Rep) -> None:
        """Oracle checks; a failure is charged to the stage that wrote the output."""
        wl, q = self.wl, rep.quality
        if "segment" in self.stages:
            q["seg_accuracy"] = wl.seg_accuracy(rep.dir / "seg.raw", self.inputs["truth"])
            if q["seg_accuracy"] < wl.SEG_ACCURACY_MIN:
                rep.fail("segment", f"seg_accuracy {q['seg_accuracy']:.4f} "
                                    f"< {wl.SEG_ACCURACY_MIN}")
        if "analyze" in self.stages:
            q["analysis"] = json.loads((rep.dir / "run/analysis.json").read_text())
            labels = rep.dir / wl.labels_path(self.inputs_dir)
            phi = wl.pore_fraction(labels, self.inputs["truth"].shape)
            if q["analysis"]["porosity"] != phi:
                rep.fail("analyze", f"porosity {q['analysis']['porosity']!r} "
                                    f"!= recount {phi!r}")
        if "classify" in self.stages:
            results = json.loads((rep.dir / "run/classify/results.json").read_text())
            q["codes"] = [r["code"] for r in results]
            q["rule_ids"] = [r["rule_id"] for r in results]
            a = q["analysis"]
            expected = wl.oracle_code(a["permeability_md"], a["p_cd_psi"], a["p_cu_psi"],
                                      a["s_wi"], wl.default_catalog())
            got = list(zip(q["codes"], q["rule_ids"]))
            if got != [expected]:
                rep.fail("classify", f"results {got} != first-match oracle {expected}")
            if q["codes"] != [a["rock_type"]["code"]]:
                rep.fail("classify", f"results codes {q['codes']} != analysis "
                                     f"code {a['rock_type']['code']}")

    def check_digests(self, reps: list[Rep]) -> None:
        """Artifacts must repeat byte for byte across one invocation."""
        for rep in reps[1:]:
            for artifact, digest in rep.digests.items():
                if reps[0].digests.get(artifact) != digest:
                    stage = next(s for s, arts in self.wl.STAGE_ARTIFACTS.items()
                                 if artifact in arts)
                    rep.fail(stage, f"{artifact} differs from the first repetition")


class MemoryProbe:
    """Times sums over PROBE_READS random elements of a fixed array.

    The probe runs no drt code, so only the host's speed moves it. It runs
    in a helper process: a stage process inherits the peak RSS of the
    process that starts it, so the array must not live in this one.
    """

    SCRIPT = f"""
import sys, time
import numpy as np
rng = np.random.default_rng(0)
data = rng.random({PROBE_ELEMENTS})
index = rng.integers(0, {PROBE_ELEMENTS}, {PROBE_READS})
for line in sys.stdin:
    times = []
    for _ in range(int(line)):
        t0 = time.perf_counter()
        data[index].sum()
        times.append(time.perf_counter() - t0)
    print(*times, flush=True)
"""

    def __enter__(self) -> "MemoryProbe":
        self.proc = subprocess.Popen([sys.executable, "-c", self.SCRIPT], text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        return self

    def __call__(self, gathers: int) -> list[float]:
        self.proc.stdin.write(f"{gathers}\n")
        self.proc.stdin.flush()
        times = [float(t) for t in self.proc.stdout.readline().split()]
        if len(times) != gathers:
            raise RuntimeError(f"memory probe exited {self.proc.poll()}")
        return times

    def __exit__(self, *exc) -> None:
        try:
            self.proc.stdin.close()  # ends the helper's loop
            self.proc.wait(timeout=10)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def host_factor(probe_s: list[float]) -> float:
    """How much slower than the reference the host ran while the probes ran."""
    return statistics.fmean(probe_s) / PROBE_REF_S


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def probe_import(run_dir: Path, repeats: int = PROBE_REPEATS) -> float:
    """Median wall time of a fresh interpreter running `import drt.cli`."""
    walls = []
    for i in range(repeats):
        wall, _, _, code = run_process([sys.executable, "-c", "import drt.cli"],
                                    run_dir, run_dir / f"import{i}")
        if code != 0:
            raise RuntimeError(f"`import drt.cli` exited {code}")
        walls.append(wall)
    return median(walls)


def probe_edt(labels_path: Path) -> float:
    """Median time of the public EDT on the pore mask the chain analysed."""
    from drt.morphology import binary_mask, euclidean_distance_transform
    from drt.volume import load_volume
    mask = binary_mask(load_volume(labels_path), {0})
    walls = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        euclidean_distance_transform(mask)
        walls.append(time.perf_counter() - t0)
    return median(walls)


def layer_metrics(w: Workload, rep: Rep, import_s: float, edt_s: float,
                  untraced_wall: float) -> dict:
    """Per-layer metrics, as name -> (value, unit), from one traced chain."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    stage_self = dict.fromkeys(STAGES, 0.0)
    total = collections.Counter()
    calls = collections.Counter()
    count = collections.Counter()
    for stage, spans in rep.spans:
        child = [0.0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (span, t0, t1, _, counters) in enumerate(spans):
            own = (t1 - t0) - child[i]
            self_s[span.split(".")[0]] += own
            if span == "cli.main":
                stage_self[stage] += own
            total[span] += t1 - t0
            calls[span] += 1
            for key, value in (counters or {}).items():
                count[span, key] += value

    model = {}
    if "train" in w.stages:
        model = json.loads((rep.dir / "model.json").read_text())
    analysis = rep.quality.get("analysis")
    codes, rule_ids = rep.quality.get("codes", []), rep.quality.get("rule_ids", [])
    n_rules = len(w.wl.default_catalog())
    # classify short-circuits LD5; a match stops at its row; UNCLASSIFIED tries all
    rules_evaluated = sum(0 if c == "LD5" else n_rules if r is None else r + 1
                          for c, r in zip(codes, rule_ids))
    fs = "filters.build_feature_stack"
    predict = "forest.ForestModel.predict_batch"
    m = {
        "forest.predict_s": (total[predict], "s"),
        "forest.predict_rows": (count[predict, "rows"], "count"),
        "forest.predict_calls": (calls[predict], "count"),
        "forest.tree_nodes": (sum(len(t["feature"]) for t in model.get("trees", [])),
                              "count"),
        "forest.fit_s": (total["forest.train_forest"], "s"),
        "forest.oob_accuracy": (model.get("oob_accuracy") or 0.0, "fraction"),
        "filters.feature_stack_s": (total[fs], "s"),
        "filters.feature_stack_calls": (calls[fs], "count"),
        # computed, not measured: voxels x features x 4 B, summed over calls
        "filters.feature_bytes": (count[fs, "bytes"], "B"),
        "morphology.local_thickness_s": (total["morphology.local_thickness"], "s"),
        "morphology.edt_s": (edt_s, "s"),
        "morphology.components_s": (total["morphology.connected_components"], "s"),
        "morphology.throat_distribution_s": (total["morphology.throat_distribution"], "s"),
        "morphology.pore_voxels": (count["morphology.local_thickness", "pore_voxels"],
                                   "count"),
        "morphology.n_components": (analysis["n_components"] if analysis else 0, "count"),
        # thickness is 2 * r * voxel size and the phantoms use 1 micron voxels
        "morphology.max_ball_diameter_vox": (
            analysis["throat"]["bin_edges_um"][-1] if analysis else 0.0, "vox"),
        "rocktype.classify_s": (total["rocktype.classify"], "s"),
        "rocktype.classify_calls": (calls["rocktype.classify"], "count"),
        "rocktype.rules_evaluated": (rules_evaluated, "count"),
        "rocktype.unclassified_ratio": (
            codes.count("UNCLASSIFIED") / len(codes) if codes else 0.0, "fraction"),
        "rocktype.unclassified_base": (len(codes), "count"),
        "rocktype.chart_s": (total["rocktype.emit_camo_chart"], "s"),
        "rocktype.chart_bytes": (count["rocktype.emit_camo_chart", "bytes"], "B"),
        "volume.load_s": (total["volume.load_volume"], "s"),
        "volume.save_s": (total["volume.save_volume"], "s"),
        "volume.bytes_read": (count["volume.load_volume", "bytes"], "B"),
        "volume.bytes_written": (count["volume.save_volume", "bytes"], "B"),
        "cli.import_s": (import_s, "s"),
    }
    for layer in LAYERS:
        m[SELF_NAMES[layer]] = (self_s[layer], "s")
    for stage in STAGES:
        m[f"cli.{stage}.self_s"] = (stage_self[stage], "s")
    accounted = len(rep.stages) * import_s + sum(self_s.values())
    m["trace.wall_s"] = (rep.wall_s, "s")
    m["trace.overhead_s"] = (rep.wall_s - untraced_wall, "s")
    m["trace.unaccounted_s"] = (rep.wall_s - accounted, "s")
    return m


def end_to_end_metrics(w: Workload, reps: list[Rep], setup_times: list[float]) -> dict:
    """The metrics of BENCHMARK.json, as name -> (value, unit, samples).

    The times are at the reference host speed: divided by the run's host factor.
    """
    n = len(reps)
    factor = host_factor(w.probe_s)
    return {
        "setup_s": (median(setup_times) / factor, "s", len(setup_times)),
        "wall_ref_s": (median([r.wall_s for r in reps]) / factor, "s", n),
        "peak_rss_mb": (median([r.peak_rss_mb for r in reps]), "MB", n),
    }


def summary_metrics(w: Workload, reps: list[Rep], setup_times: list[float],
                    attempted: int, failed: int) -> dict:
    """The other end-to-end figures, printed only; some exist on one workload.

    These times are as measured, at whatever speed the host ran.
    """
    n = len(reps)
    wall = median([r.wall_s for r in reps])
    out = {"wall_s": (wall, "s", n),
           "setup_measured_s": (median(setup_times), "s", len(setup_times)),
           "host_factor": (host_factor(w.probe_s), "ratio", len(w.probe_s))}
    out.update({f"{s}_s": (median([r.stages[s][0] for r in reps if s in r.stages]), "s", n)
                for s in w.stages})
    nx, ny, nz = w.params["dims"]
    out["mvox_per_s"] = (nx * ny * nz / 1e6 / wall, "Mvox/s", n)
    out["failed_ratio"] = (failed / attempted, "fraction", attempted)
    if "segment" in w.stages:
        # checked on the first chain; the others are byte-identical to it
        out["seg_accuracy"] = (reps[0].quality.get("seg_accuracy", 0.0), "fraction", 1)
    return out


def resolved_config() -> dict:
    from drt.cli import config_from_json_dict
    return dataclasses.asdict(config_from_json_dict({}))


def write_manifest(w: Workload, trace: int, reps: list[Rep], metrics: dict) -> Path:
    import numpy
    import scipy
    codes = reps[0].quality.get("codes", [])
    manifest = {
        "workload": w.name,
        "seed": w.seed,
        "trace": trace,
        "params": w.params,
        "inputs_sha256": w.input_digests,
        "artifacts_sha256": reps[0].digests,
        "config": resolved_config(),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "nproc": os.cpu_count(),
        "code_mix": dict(sorted(collections.Counter(codes).items())),
        "reps": [{"stages": r.stages, "failures": r.failures} for r in reps],
        "probe_s": w.probe_s,
        "metrics": metrics,
    }
    path = WORK / "manifests" / f"{w.name}-seed{w.seed}-trace{trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return path


def measure(name: str, seed: int, seconds: float, trace: int,
            params: dict | None = None) -> tuple[dict, list[str]]:
    """Run one workload; return the JSON result and the table lines."""
    with MemoryProbe() as probe:
        w = Workload(name, seed, probe, params)
        WORK.mkdir(exist_ok=True)
        run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=WORK))
        try:
            setup_times = w.setup(run_dir)
            # warm-up: byte-compiles src/ and fills the page cache
            probe_import(run_dir, 1)
            if trace:
                reps = [w.run_chain(run_dir / "untraced", traced=False),
                        w.run_chain(run_dir / "traced", traced=True)]
            else:
                reps, t_start = [], time.perf_counter()
                while True:
                    reps.append(w.run_chain(run_dir / f"rep{len(reps)}", traced=False,
                                            check=not reps))
                    spent = time.perf_counter() - t_start
                    if spent + spent / len(reps) > seconds:
                        break
            w.check_digests(reps)
            attempted = len(reps) * len(w.stages)
            failed = sum(len(r.failures) for r in reps)
            if trace:
                edt_s = probe_edt(reps[1].dir / w.wl.labels_path(w.inputs_dir))
                if reps[1].failures:
                    metrics = {}
                else:
                    metrics = {k: (v, unit, 1) for k, (v, unit) in layer_metrics(
                        w, reps[1], probe_import(run_dir), edt_s, reps[0].wall_s).items()}
                shown = metrics
            else:
                metrics = end_to_end_metrics(w, reps, setup_times)
                shown = {**metrics,
                         **summary_metrics(w, reps, setup_times, attempted, failed)}
            manifest = write_manifest(w, trace, reps, {k: v[:2] for k, v in shown.items()})
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    lines = [f"workload {name} seed {seed} trace {trace}: {len(reps)} chain(s) of "
             f"{'/'.join(w.stages)}, manifest {manifest.relative_to(ROOT)}"]
    lines += [f"  {k:<34} {v:>14.6g} {unit:<10} n={n}" for k, (v, unit, n) in shown.items()]
    for rep in reps:
        for stage, reasons in rep.failures.items():
            lines.append(f"  FAILED {stage}: {'; '.join(reasons)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so run_process kills its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "drt" / "cli.py").is_file():
        print(f"error: no drt sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
