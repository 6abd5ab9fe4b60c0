"""Command-line pipeline: train, segment, analyze, classify, report.

Each stage reads and writes plain files so runs can be resumed and
inspected. Exit codes: 0 on success, 2 for bad inputs or configuration,
3 for numeric failures, 4 for file-system failures.

Each ``cmd_*`` imports the layers it runs when it starts, so a process
loads only its own stage's code: ``classify`` and ``report`` load neither
numpy nor scipy.
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .config import FeatureBankConfig, ForestHyperparameters
from .errors import (BadParams, ConfigError, InputError, IoError, IoFailure,
                     MissingArtifacts, NumericError)
from .fileio import read_json, read_text, write_json, write_text

log = logging.getLogger("drt")


@dataclass
class PipelineConfig:
    """Validated settings for every pipeline stage."""

    feature_bank: FeatureBankConfig = field(default_factory=FeatureBankConfig)
    forest: ForestHyperparameters = field(default_factory=ForestHyperparameters)
    class_names: list[str] | None = None
    pore_classes: tuple[int, ...] = (0,)
    micropore_classes: tuple[int, ...] = ()
    connectivity: int = 26
    n_bins: int = 32
    cutoffs_um: tuple[float, float] = (10.0, 100.0)
    micro_weight: float = 0.5
    epsilon: float = 0.10
    camo_relations_path: str | None = None
    catalog_path: str | None = None
    pfunction_c: float = 1.0
    pfunction_e: float = 0.5
    s_wi: float = 0.10
    p_cu_psi: float | None = None
    p_cu_ratio: float = 8.0
    s_w_anchor: float | None = None

    def __post_init__(self):
        self.pore_classes = tuple(int(c) for c in self.pore_classes)
        self.micropore_classes = tuple(int(c) for c in self.micropore_classes)
        self.cutoffs_um = tuple(float(c) for c in self.cutoffs_um)
        if not self.pore_classes:
            raise ConfigError("pore_classes must not be empty")
        if any(c < 0 for c in self.pore_classes + self.micropore_classes):
            raise ConfigError("class ids must be >= 0")
        overlap = set(self.pore_classes) & set(self.micropore_classes)
        if overlap:
            raise ConfigError(
                f"pore and micropore classes overlap: {sorted(overlap)}")
        if self.class_names is not None:
            n = len(self.class_names)
            outside = [c for c in self.pore_classes + self.micropore_classes
                       if c >= n]
            if outside:
                raise ConfigError(
                    f"class ids {outside} not covered by the {n} class names")
        if self.connectivity not in (6, 26):
            raise ConfigError(
                f"connectivity must be 6 or 26, got {self.connectivity}")
        if self.n_bins < 1:
            raise ConfigError(f"n_bins must be >= 1, got {self.n_bins}")
        if len(self.cutoffs_um) != 2 or not 0 < self.cutoffs_um[0] < self.cutoffs_um[1]:
            raise ConfigError(
                f"cutoffs_um must be (micro, macro) with 0 < micro < macro, "
                f"got {self.cutoffs_um}")
        if not 0.0 <= self.micro_weight <= 1.0:
            raise ConfigError(
                f"micro_weight must be in [0, 1], got {self.micro_weight}")
        if not 0.0 < self.epsilon < 1.0 / 3.0:
            raise ConfigError(f"epsilon must be in (0, 1/3), got {self.epsilon}")
        if self.pfunction_c <= 0:
            raise ConfigError(
                f"capillary c must be positive, got {self.pfunction_c}")
        if not 0 < self.s_wi < 1:
            raise ConfigError(f"s_wi must lie in (0, 1), got {self.s_wi}")
        if self.p_cu_psi is not None and self.p_cu_psi <= 0:
            raise ConfigError(f"p_cu_psi must be positive, got {self.p_cu_psi}")
        if self.p_cu_ratio < 1:
            raise ConfigError(f"p_cu_ratio must be >= 1, got {self.p_cu_ratio}")
        if self.s_w_anchor is not None and not self.s_wi < self.s_w_anchor < 1:
            raise ConfigError(
                f"s_w_anchor must lie in ({self.s_wi}, 1), got {self.s_w_anchor}")


# sections read whole into the PipelineConfig field of the same name
_NESTED = {"feature_bank": FeatureBankConfig, "forest": ForestHyperparameters}

# per config section, the PipelineConfig field that each key sets
_CONFIG_FIELDS = {
    **{section: dict.fromkeys(cls().to_json_dict(), section)
       for section, cls in _NESTED.items()},
    "segmentation": {"class_names": "class_names", "pore_classes": "pore_classes",
                     "micropore_classes": "micropore_classes",
                     "connectivity": "connectivity"},
    "throat": {"n_bins": "n_bins", "cutoffs_um": "cutoffs_um"},
    "petro": {"micro_weight": "micro_weight", "epsilon": "epsilon"},
    "camo": {"relations_path": "camo_relations_path",
             "catalog_path": "catalog_path"},
    "capillary": {"c": "pfunction_c", "e": "pfunction_e", "s_wi": "s_wi",
                  "p_cu_psi": "p_cu_psi", "p_cu_ratio": "p_cu_ratio",
                  "s_w_anchor": "s_w_anchor"},
}


def config_from_json_dict(raw: dict) -> PipelineConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - set(_CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    kwargs: dict = {}
    for section, fields in _CONFIG_FIELDS.items():
        entry = raw.get(section, {})
        if not isinstance(entry, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        bad = set(entry) - set(fields)
        if bad:
            raise ConfigError(f"unknown keys in config section {section!r}: "
                              f"{sorted(bad)}")
        if section not in _NESTED:
            kwargs.update((fields[key], value) for key, value in entry.items())
    try:
        for section, cls in _NESTED.items():
            merged = cls().to_json_dict() | raw.get(section, {})
            kwargs[section] = cls.from_json_dict(merged)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    names = kwargs.get("class_names")
    if names is not None and (not isinstance(names, list) or not names
                              or not all(isinstance(n, str) for n in names)):
        raise ConfigError("class_names must be a non-empty list of strings")
    try:
        return PipelineConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def load_config(path: str | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    return config_from_json_dict(read_json(path, ConfigError))


def _read_json(path: Path) -> dict:
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise BadParams(f"{path} must hold a JSON object")
    return raw


_JSON_KINDS = {float: "number", dict: "object", list: "array"}


def _checked(value, kind: type, where: str):
    """A JSON value that is null or of ``kind``, where float means a number.

    Anything else raises BadParams naming ``where``, the file and key.
    """
    ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
          if kind is float else isinstance(value, kind))
    if value is not None and not ok:
        raise BadParams(f"{where} must be a JSON {_JSON_KINDS[kind]}, "
                        f"got {value!r}")
    return value


def _ensure_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {path}: {exc}") from exc
    return path


def cmd_train(args) -> int:
    from .filters import sample_features
    from .forest import load_labels_csv, save_model, train_forest, TrainingSet
    from .volume import load_volume

    cfg = load_config(args.config)
    volume = load_volume(args.volume)
    coords, labels = load_labels_csv(args.labels, dims=volume.dims)
    if cfg.class_names is not None:
        class_names = cfg.class_names
        if labels.size and int(labels.max()) >= len(class_names):
            raise ConfigError(
                f"config names {len(class_names)} classes but labels use "
                f"{int(labels.max()) + 1}")
    else:
        n_classes = int(labels.max()) + 1 if labels.size else 1
        class_names = [f"class_{i}" for i in range(n_classes)]
    features = sample_features(volume, cfg.feature_bank, coords,
                               threads=args.threads)
    training = TrainingSet(features=features, labels=labels,
                           class_names=class_names)
    model = train_forest(training, cfg.forest, cfg.feature_bank, seed=args.seed)
    _ensure_dir(Path(args.out).parent)
    save_model(model, args.out)
    oob = "n/a" if model.oob_accuracy is None else f"{model.oob_accuracy:.4f}"
    print(f"oob_accuracy {oob}")
    print(args.out)
    return 0


def cmd_segment(args) -> int:
    import numpy as np

    from .forest import load_model, segment_volume
    from .volume import load_volume, save_volume

    volume = load_volume(args.volume)
    model = load_model(args.model)
    label_vol, conf_vol = segment_volume(model, volume, threads=args.threads)
    out = Path(args.out)
    conf_out = out.with_name(out.stem + "_confidence" + (out.suffix or ".raw"))
    _ensure_dir(out.parent)
    save_volume(label_vol, out)
    save_volume(conf_vol, conf_out)
    counts = np.bincount(label_vol.data.ravel(), minlength=model.n_classes)
    for class_id, name in enumerate(model.class_names):
        print(f"{class_id} {name} {int(counts[class_id])}")
    print(out)
    print(conf_out)
    return 0


def cmd_analyze(args) -> int:
    from .capillary import (build_pc_curve, export_pc_csv, pc_shape_features,
                            pcd_from_permeability, PFunction,
                            save_pc_curve_json)
    from .morphology import (binary_mask, connected_components,
                             local_thickness, throat_distribution)
    from .petro import (classify_modality, DEFAULT_CAMO,
                        estimate_permeability, load_camo,
                        porosity_from_labels)
    from .rocktype import classify, default_catalog, load_catalog
    from .volume import load_volume

    cfg = load_config(args.config)
    labels = load_volume(args.labels)
    out_dir = _ensure_dir(Path(args.out))

    n_classes = None if cfg.class_names is None else len(cfg.class_names)
    porosity = porosity_from_labels(
        labels, cfg.pore_classes, cfg.micropore_classes,
        micro_weight=cfg.micro_weight, n_classes=n_classes)
    comp = connected_components(labels, set(cfg.pore_classes),
                                connectivity=cfg.connectivity)

    pore_mask = binary_mask(labels, set(cfg.pore_classes))
    thickness = local_thickness(pore_mask)
    dist = throat_distribution(thickness, cutoffs=cfg.cutoffs_um,
                               n_bins=cfg.n_bins)
    dist.save_csv(out_dir / "throat_distribution.csv")
    dist.save_json(out_dir / "throat_distribution.json")

    profile = classify_modality(dist, epsilon=cfg.epsilon)
    relation = (DEFAULT_CAMO if cfg.camo_relations_path is None
                else load_camo(cfg.camo_relations_path))
    estimate = estimate_permeability(relation, porosity, profile, comp)
    k_md = estimate.k_md

    pfunc = PFunction(c=cfg.pfunction_c, e=cfg.pfunction_e)
    p_cd = pcd_from_permeability(k_md, porosity, pfunc)
    p_cu = cfg.p_cu_psi if cfg.p_cu_psi is not None else cfg.p_cu_ratio * p_cd
    curve = build_pc_curve(p_cd, p_cu, cfg.s_wi, cfg.s_w_anchor)
    save_pc_curve_json(curve, out_dir / "pc_curve.json")
    export_pc_csv(curve, out_dir / "pc_curve.csv")

    catalog = (default_catalog() if cfg.catalog_path is None
               else load_catalog(cfg.catalog_path))
    rock = classify(k_md, pc_shape_features(curve), catalog,
                    phi=porosity, modality=profile.modality)

    payload = {
        # file name only: keeps output trees byte-identical when the same
        # pipeline runs from different directories
        "source": Path(args.labels).name,
        "porosity": porosity,
        "n_components": comp.n_components,
        "dominant_component": comp.largest_component(),
        "percolating": comp.dominant_percolates(),
        "throat": dist.to_json_dict(),
        "modality": profile.to_json_dict(),
        "camo_class": estimate.camo_class,
        "phi_in_camo_range": estimate.phi_in_range,
        "permeability_md": k_md,
        "p_cd_psi": curve.p_cd_psi,
        "p_cu_psi": curve.p_cu_psi,
        "s_wi": curve.s_wi,
        "lambda": None if math.isinf(curve.lam) else curve.lam,
        "rock_type": rock.to_json_dict(),
    }
    write_json(out_dir / "analysis.json", payload)
    print(out_dir / "analysis.json")
    return 0


def _rows_from_analysis(path: Path) -> list[dict]:
    a = _read_json(path)
    keys = {"k_md": "permeability_md", "p_cd_psi": "p_cd_psi",
            "p_cu_psi": "p_cu_psi", "s_wi": "s_wi", "phi": "porosity"}
    missing = [key for key in (*keys.values(), "camo_class") if a.get(key) is None]
    if missing:
        raise BadParams(f"{path} lacks classification inputs: {missing}")
    row = {name: float(_checked(a[key], float, f"{path}: {key}"))
           for name, key in keys.items()}
    modality = _checked(a.get("modality"), dict, f"{path}: modality") or {}
    return [row | {"camo_class": str(a["camo_class"]),
                   "modality": modality.get("modality")}]


def _rows_from_csv(path: Path) -> list[dict]:
    """Parse rows of k,p_cd,p_cu,s_wi[,phi[,class]] with optional header."""
    rows: list[dict] = []
    for row_no, row in enumerate(csv.reader(read_text(path).splitlines()),
                                 start=1):
        if not row:
            continue
        first = row[0].strip().lower()
        if row_no == 1 and first in ("k", "k_md"):
            continue
        if not 4 <= len(row) <= 6:
            raise BadParams(
                f"{path}: row {row_no}: expected k,p_cd,p_cu,s_wi[,phi,class], "
                f"got {len(row)} fields")
        try:
            k, p_cd, p_cu, s_wi = (float(v) for v in row[:4])
        except ValueError as exc:
            raise BadParams(f"{path}: row {row_no}: {exc}") from exc
        phi = None
        if len(row) >= 5 and row[4].strip():
            try:
                phi = float(row[4])
            except ValueError as exc:
                raise BadParams(f"{path}: row {row_no}: {exc}") from exc
        camo_class = row[5].strip() if len(row) == 6 and row[5].strip() else None
        rows.append({"k_md": k, "p_cd_psi": p_cd, "p_cu_psi": p_cu,
                     "s_wi": s_wi, "phi": phi, "camo_class": camo_class,
                     "modality": None})
    return rows


def cmd_classify(args) -> int:
    from .petro import DEFAULT_CAMO, load_camo
    from .rocktype import (camo_check, ChartSample, classify, decode_code,
                           default_catalog, emit_camo_chart, load_catalog)

    cfg = load_config(args.config)
    direct = [args.k, args.pcd, args.pcu, args.swi]
    sources = [args.analysis is not None, args.samples is not None,
               any(v is not None for v in direct)]
    if sum(sources) != 1:
        raise BadParams(
            "give exactly one input: --analysis, --samples, or all of "
            "--k --pcd --pcu --swi")
    if args.analysis is not None:
        rows = _rows_from_analysis(Path(args.analysis))
    elif args.samples is not None:
        rows = _rows_from_csv(Path(args.samples))
    else:
        if any(v is None for v in direct):
            raise BadParams("need all of --k --pcd --pcu --swi")
        rows = [{"k_md": args.k, "p_cd_psi": args.pcd, "p_cu_psi": args.pcu,
                 "s_wi": args.swi, "phi": args.phi, "camo_class": args.camo_class,
                 "modality": None}]

    catalog = (default_catalog() if (args.catalog or cfg.catalog_path) is None
               else load_catalog(args.catalog or cfg.catalog_path))
    relation = (DEFAULT_CAMO if cfg.camo_relations_path is None
                else load_camo(cfg.camo_relations_path))

    results = []
    chart_samples = []
    for row in rows:
        consistent = deviation = None
        if row["phi"] is not None and row["camo_class"] is not None:
            check = camo_check(relation, row["phi"], row["k_md"],
                               row["camo_class"])
            consistent, deviation = check.consistent, check.deviation_decades
        res = classify(row["k_md"],
                       (row["p_cd_psi"], row["p_cu_psi"], row["s_wi"]),
                       catalog, phi=row["phi"], modality=row["modality"],
                       camo_consistent=consistent,
                       camo_deviation_decades=deviation)
        payload = res.to_json_dict()
        if res.classified:
            payload["decoded"] = decode_code(res.code).to_json_dict()
        results.append(payload)
        if row["phi"] is not None and row["camo_class"] is not None:
            chart_samples.append(ChartSample(
                phi=row["phi"], k_md=row["k_md"],
                camo_class=row["camo_class"],
                code=res.code if res.classified else ""))
        print(f"{res.code}")

    out_dir = _ensure_dir(Path(args.out))
    write_json(out_dir / "results.json", results)
    emit_camo_chart(relation, chart_samples, out_dir / "camo_chart.svg",
                    out_dir / "camo_chart.csv")
    print(out_dir / "results.json")
    return 0


def cmd_report(args) -> int:
    run = Path(args.run)
    analysis_path = run / "analysis.json"
    pc_csv = run / "pc_curve.csv"
    missing = [p.name for p in (analysis_path, pc_csv) if not p.is_file()]
    if missing:
        raise MissingArtifacts(
            f"run directory {run} is missing: {', '.join(missing)}")
    a = _read_json(analysis_path)

    def num(key, fmt="{:.6g}"):
        value = _checked(a.get(key), float, f"{analysis_path}: {key}")
        return "n/a" if value is None else fmt.format(value)

    rock = _checked(a.get("rock_type"), dict, f"{analysis_path}: rock_type") or {}
    modality = _checked(a.get("modality"), dict, f"{analysis_path}: modality") or {}
    distance = _checked(modality.get("distance"), float,
                        f"{analysis_path}: modality.distance")
    violations = _checked(rock.get("violations"), list,
                          f"{analysis_path}: rock_type.violations") or []
    lines = [
        "# Digital rock typing report",
        "",
        f"Source: `{a.get('source', 'unknown')}`",
        "",
        "## Petrophysics",
        "",
        f"- Porosity: {num('porosity')}",
        f"- Modality: {modality.get('modality', 'n/a')} "
        f"(archetype: {modality.get('archetype', 'n/a')}, "
        f"distance {(math.nan if distance is None else distance):.4g})",
        f"- Permeability: {num('permeability_md')} mD "
        f"(CAMO class: {a.get('camo_class', 'n/a')})",
        "",
        "## Capillary pressure",
        "",
        f"- P_cd: {num('p_cd_psi')} psi",
        f"- P_cu: {num('p_cu_psi')} psi",
        f"- S_wi: {num('s_wi')}",
        f"- lambda: {'flat curve' if a.get('lambda') is None else num('lambda')}",
        "",
        "## Rock type",
        "",
        f"- Code: {rock.get('code', 'n/a')}",
    ]
    if rock.get("code") == "UNCLASSIFIED":
        lines.append(f"- Nearest rule: {rock.get('nearest_code', 'n/a')}")
        for v in violations:
            lines.append(f"  - {v}")
    lines.append("")

    out_dir = _ensure_dir(Path(args.out)) if args.out else run
    report_path = out_dir / "report.md"
    write_text(report_path, "\n".join(lines))
    print(report_path)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="pipeline config JSON")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for the feature slabs of train and "
                        "segment; output is byte-identical for any value")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drt",
        description="Digital rock typing: segmentation, pore morphology, "
                    "and carbonate rock-type classification.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a segmentation forest")
    p.add_argument("--volume", required=True, help="grayscale volume (.raw)")
    p.add_argument("--labels", required=True,
                   help="annotations CSV x,y,z,class_id")
    p.add_argument("--out", required=True, help="model JSON path")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("segment", help="apply a trained model to a volume")
    p.add_argument("--volume", required=True, help="grayscale volume (.raw)")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--out", required=True, help="label volume output (.raw)")
    _add_common(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("analyze", help="morphology and petrophysics of a "
                                       "label volume")
    p.add_argument("--labels", required=True, help="label volume (.raw)")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", help="rock-type codes from sample properties")
    p.add_argument("--analysis", default=None, help="analysis.json from analyze")
    p.add_argument("--samples", default=None,
                   help="CSV of k,p_cd,p_cu,s_wi[,phi,class]")
    p.add_argument("--k", type=float, default=None, help="permeability, mD")
    p.add_argument("--pcd", type=float, default=None,
                   help="displacement Pc, psi")
    p.add_argument("--pcu", type=float, default=None, help="upper Pc, psi")
    p.add_argument("--swi", type=float, default=None,
                   help="irreducible water saturation, fraction")
    p.add_argument("--phi", type=float, default=None,
                   help="porosity fraction (for the CAMO check)")
    p.add_argument("--camo-class", default=None,
                   help="morphology class (for the CAMO check)")
    p.add_argument("--catalog", default=None, help="catalog JSON override")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("report", help="markdown summary of an analyze run")
    p.add_argument("--run", required=True,
                   help="directory holding analyze outputs")
    p.add_argument("--out", default=None,
                   help="output directory (default: the run directory)")
    _add_common(p)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.threads < 1:
            raise BadParams(f"--threads must be >= 1, got {args.threads}")
        return args.func(args)
    except InputError as exc:
        log.error("%s", exc)
        return 2
    except NumericError as exc:
        log.error("%s", exc)
        return 3
    except IoError as exc:
        log.error("%s", exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
