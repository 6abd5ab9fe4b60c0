"""Carbonate rock-type catalog: rule engine, code decoding, CAMO chart.

The catalog is a fixed, ordered list of rules over four sample properties:
permeability k (mD), the displacement and upper capillary pressures
p_cd and p_cu (psi), and irreducible water saturation s_wi (fraction).
Codes read L<perm class><pc shape><swi class>; the tightest class, LD5,
catches every sample below 0.1 mD. Classification is first match in
catalog order; an unmatched sample reports the nearest rule (fewest
violated predicates, earliest on ties) and what it violated.

Permeability classes tile the positive axis with half-open, lower-
inclusive buckets; saturation classes do the same on [0.07, 0.345).
Capillary-pressure bounds are strict one-sided comparisons.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import BadParams, MalformedCode, NonPositiveValue
from .fileio import json_typed, read_json, write_csv, write_json, write_text
from .petro import CamoRelation

PERM_CLASS_BOUNDS = {
    "1": (60.0, math.inf),
    "2": (7.0, 60.0),
    "3": (1.0, 7.0),
    "4": (0.1, 1.0),
    "D5": (0.0, 0.1),
}

SWI_CLASS_BOUNDS = {
    "1": (0.07, 0.135),
    "2": (0.135, 0.205),
    "3": (0.205, 0.275),
    "4": (0.275, 0.345),
}

UNCLASSIFIED = "UNCLASSIFIED"


@dataclass(frozen=True)
class CatalogRule:
    """One catalog row. Bounds are None when the row does not constrain
    that property; (k_min, k_max) and (swi_min, swi_max) are half-open
    [lo, hi); pressure predicates are strict ('lt', x) or ('gt', x)."""

    code: str
    k_min: float | None = None
    k_max: float | None = None
    p_cu: tuple[str, float] | None = None
    p_cd: tuple[str, float] | None = None
    swi_min: float | None = None
    swi_max: float | None = None

    def violations(self, k: float, p_cd: float, p_cu: float,
                   s_wi: float) -> list[str]:
        """Human-readable description of every predicate the sample fails."""
        out: list[str] = []
        if self.k_min is not None and k < self.k_min:
            out.append(f"k={k:g} mD below {self.k_min:g}")
        if self.k_max is not None and k >= self.k_max:
            out.append(f"k={k:g} mD not below {self.k_max:g}")
        for name, value, pred in (("p_cu", p_cu, self.p_cu),
                                  ("p_cd", p_cd, self.p_cd)):
            if pred is None:
                continue
            op, bound = pred
            if op == "lt" and not value < bound:
                out.append(f"{name}={value:g} psi not below {bound:g}")
            elif op == "gt" and not value > bound:
                out.append(f"{name}={value:g} psi not above {bound:g}")
        if self.swi_min is not None and s_wi < self.swi_min:
            out.append(f"s_wi={s_wi:g} below {self.swi_min:g}")
        if self.swi_max is not None and s_wi >= self.swi_max:
            out.append(f"s_wi={s_wi:g} not below {self.swi_max:g}")
        return out

    def matches(self, k: float, p_cd: float, p_cu: float, s_wi: float) -> bool:
        return not self.violations(k, p_cd, p_cu, s_wi)

    def to_json_dict(self) -> dict:
        return {
            "code": self.code,
            "k_min": self.k_min,
            "k_max": self.k_max,
            "p_cu": None if self.p_cu is None else {"op": self.p_cu[0],
                                                    "psi": self.p_cu[1]},
            "p_cd": None if self.p_cd is None else {"op": self.p_cd[0],
                                                    "psi": self.p_cd[1]},
            "swi_min": self.swi_min,
            "swi_max": self.swi_max,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CatalogRule":
        def pressure(key):
            if d.get(key) is None:
                return None
            entry = json_typed(d[key], dict, key)
            op = json_typed(entry["op"], str, f"{key}.op")
            if op not in ("lt", "gt"):
                raise BadParams(f"pressure op must be 'lt' or 'gt', got {op!r}")
            return (op, float(json_typed(entry["psi"], float, f"{key}.psi")))

        code = json_typed(d["code"], str, "code")
        if not code:
            raise BadParams("rule code must be a non-empty string")
        opt = lambda key: (None if d.get(key) is None
                           else float(json_typed(d[key], float, key)))
        return cls(code=code, k_min=opt("k_min"), k_max=opt("k_max"),
                   p_cu=pressure("p_cu"), p_cd=pressure("p_cd"),
                   swi_min=opt("swi_min"), swi_max=opt("swi_max"))


def _rule(code: str, perm: str, pcu: tuple[str, float], pcd: tuple[str, float],
          swi: str) -> CatalogRule:
    k_lo, k_hi = PERM_CLASS_BOUNDS[perm]
    s_lo, s_hi = SWI_CLASS_BOUNDS[swi]
    return CatalogRule(code=code, k_min=k_lo,
                       k_max=None if math.isinf(k_hi) else k_hi,
                       p_cu=pcu, p_cd=pcd, swi_min=s_lo, swi_max=s_hi)


def default_catalog() -> list[CatalogRule]:
    """The built-in limestone catalog, in printed order."""
    return [
        _rule("L111", "1", ("lt", 400.0), ("lt", 100.0), "1"),
        _rule("L121", "1", ("gt", 400.0), ("lt", 100.0), "1"),
        _rule("L231", "2", ("lt", 700.0), ("gt", 80.0), "1"),
        _rule("L241", "2", ("gt", 700.0), ("lt", 30.0), "1"),
        _rule("L242", "2", ("gt", 700.0), ("lt", 30.0), "2"),
        _rule("L351", "3", ("lt", 1100.0), ("lt", 100.0), "1"),
        _rule("L352", "3", ("lt", 1100.0), ("lt", 100.0), "2"),
        _rule("L361", "3", ("lt", 1400.0), ("gt", 250.0), "1"),
        _rule("L372", "3", ("gt", 1400.0), ("gt", 100.0), "2"),
        _rule("L373", "3", ("gt", 1400.0), ("gt", 100.0), "3"),
        _rule("L374", "3", ("gt", 1400.0), ("gt", 100.0), "4"),
        _rule("L382", "3", ("gt", 1400.0), ("gt", 100.0), "2"),
        _rule("L461", "4", ("lt", 1000.0), ("lt", 400.0), "1"),
        _rule("L492", "4", ("lt", 1200.0), ("lt", 600.0), "2"),
        CatalogRule(code="LD5", k_max=0.1),
    ]


@dataclass(frozen=True)
class RockTypeResult:
    """Outcome of classifying one sample against the catalog.

    Exactly one of rule_id (a match) or the nearest-rule diagnostics is
    populated. phi, modality, and camo_consistent are pass-through context
    echoed into reports when the caller knows them.
    """

    code: str
    k_md: float
    p_cd_psi: float
    p_cu_psi: float
    s_wi: float
    rule_id: int | None = None
    nearest_rule_id: int | None = None
    nearest_code: str | None = None
    violations: tuple[str, ...] = ()
    phi: float | None = None
    modality: str | None = None
    camo_consistent: bool | None = None
    camo_deviation_decades: float | None = None

    @property
    def classified(self) -> bool:
        return self.code != UNCLASSIFIED

    def to_json_dict(self) -> dict:
        out = {
            "inputs": {
                "k_md": self.k_md,
                "p_cd_psi": self.p_cd_psi,
                "p_cu_psi": self.p_cu_psi,
                "s_wi": self.s_wi,
                "phi": self.phi,
                "modality": self.modality,
            },
            "code": self.code,
            "rule_id": self.rule_id,
            "camo": None if self.camo_consistent is None else {
                "deviation": self.camo_deviation_decades,
                "consistent": self.camo_consistent,
            },
            "violations": list(self.violations),
        }
        if not self.classified:
            out["nearest_rule_id"] = self.nearest_rule_id
            out["nearest_code"] = self.nearest_code
        return out


def classify(k_md: float, pc: tuple[float, float, float],
             catalog: list[CatalogRule] | None = None, *,
             phi: float | None = None, modality: str | None = None,
             camo_consistent: bool | None = None,
             camo_deviation_decades: float | None = None) -> RockTypeResult:
    """First-match rock typing; sub-0.1 mD samples short-circuit to LD5.

    ``pc`` is the (p_cd, p_cu, s_wi) shape triple. With no match the
    result carries the nearest rule (fewest violated predicates, earliest
    catalog row on ties) and its violation messages. UNCLASSIFIED is a
    value, not an error.
    """
    p_cd_psi, p_cu_psi, s_wi = (float(v) for v in pc)
    k_md = float(k_md)
    if not k_md > 0:
        raise NonPositiveValue(f"permeability must be positive, got {k_md}")
    if not (p_cu_psi > 0 and p_cd_psi > 0):
        raise NonPositiveValue(
            f"pressures must be positive, got p_cu={p_cu_psi}, p_cd={p_cd_psi}")
    if not 0 <= s_wi < 1:
        raise BadParams(f"s_wi must lie in [0, 1), got {s_wi}")
    rules = default_catalog() if catalog is None else catalog
    context = dict(phi=phi, modality=modality,
                   camo_consistent=camo_consistent,
                   camo_deviation_decades=camo_deviation_decades)
    if k_md < 0.1:
        rule_id = next((i for i, r in enumerate(rules) if r.code == "LD5"), None)
        return RockTypeResult(code="LD5", k_md=k_md, p_cd_psi=p_cd_psi,
                              p_cu_psi=p_cu_psi, s_wi=s_wi, rule_id=rule_id,
                              **context)
    if not rules:
        raise BadParams("the rule catalog is empty")
    nearest: tuple[int, int, CatalogRule, list[str]] | None = None
    for idx, rule in enumerate(rules):
        bad = rule.violations(k_md, p_cd_psi, p_cu_psi, s_wi)
        if not bad:
            return RockTypeResult(code=rule.code, k_md=k_md, p_cd_psi=p_cd_psi,
                                  p_cu_psi=p_cu_psi, s_wi=s_wi, rule_id=idx,
                                  **context)
        if nearest is None or len(bad) < nearest[0]:
            nearest = (len(bad), idx, rule, bad)
    return RockTypeResult(code=UNCLASSIFIED, k_md=k_md, p_cd_psi=p_cd_psi,
                          p_cu_psi=p_cu_psi, s_wi=s_wi,
                          nearest_rule_id=nearest[1],
                          nearest_code=nearest[2].code,
                          violations=tuple(nearest[3]), **context)


_CODE_RE = re.compile(r"^L([1-4])([1-9])([1-9])$")


@dataclass(frozen=True)
class DecodedCode:
    """Digit decomposition of a rock-type code."""

    code: str
    reservoir: bool
    perm_class: str
    perm_range_md: tuple[float, float]
    pc_shape_class: int | None
    swi_class: int | None
    swi_range: tuple[float, float] | None

    def to_json_dict(self) -> dict:
        return {
            "code": self.code,
            "reservoir": self.reservoir,
            "perm_class": self.perm_class,
            "perm_range_md": [self.perm_range_md[0],
                              None if math.isinf(self.perm_range_md[1])
                              else self.perm_range_md[1]],
            "pc_shape_class": self.pc_shape_class,
            "swi_class": self.swi_class,
            "swi_range": None if self.swi_range is None else list(self.swi_range),
        }


def decode_code(code: str) -> DecodedCode:
    """Split a rock-type code into its class digits and their ranges."""
    if code == "LD5":
        return DecodedCode(code=code, reservoir=False, perm_class="D5",
                           perm_range_md=PERM_CLASS_BOUNDS["D5"],
                           pc_shape_class=None, swi_class=None, swi_range=None)
    m = _CODE_RE.match(code) if isinstance(code, str) else None
    if not m:
        raise MalformedCode(
            f"code {code!r} is not 'L' + perm digit 1-4 + pc shape digit + "
            f"swi digit, or 'LD5'")
    perm, pc_shape, swi = m.groups()
    return DecodedCode(
        code=code, reservoir=True, perm_class=perm,
        perm_range_md=PERM_CLASS_BOUNDS[perm],
        pc_shape_class=int(pc_shape), swi_class=int(swi),
        swi_range=SWI_CLASS_BOUNDS.get(swi))


class CamoCheck(NamedTuple):
    """Consistency verdict of a measured permeability against a class curve."""

    consistent: bool
    deviation_decades: float


def camo_check(relation: CamoRelation, phi: float, k_md: float,
               camo_class: str, tol_decades: float = 0.5) -> CamoCheck:
    """Check k against the class power law within a log10 tolerance band.

    deviation = |log10 k - log10(a * phi**b)|; consistent iff the
    deviation is at most tol_decades.
    """
    if not (phi > 0 and k_md > 0):
        raise NonPositiveValue(
            f"phi and k must be positive, got phi={phi}, k={k_md}")
    predicted = relation[camo_class].permeability(float(phi))
    if not predicted > 0:
        raise NonPositiveValue(
            f"class '{camo_class}' curve gives non-positive k at phi={phi}")
    deviation = abs(math.log10(k_md) - math.log10(predicted))
    return CamoCheck(consistent=deviation <= tol_decades,
                     deviation_decades=deviation)


def save_catalog(rules: list[CatalogRule], path) -> None:
    write_json(path, [r.to_json_dict() for r in rules])


def load_catalog(path) -> list[CatalogRule]:
    raw = read_json(path, BadParams, list)
    if not raw:
        raise BadParams(f"{path} must hold at least one rule")
    try:
        return [CatalogRule.from_json_dict(json_typed(d, dict, "catalog rule"))
                for d in raw]
    except (KeyError, TypeError, ValueError) as exc:
        raise BadParams(f"{path} holds a malformed rule: {exc}") from exc


# ---------------------------------------------------------------------------
# CAMO chart


@dataclass(frozen=True)
class ChartSample:
    """One plotted point: position, morphology class, rock-type code label."""

    phi: float
    k_md: float
    camo_class: str
    code: str = ""


_CLASS_COLORS = {
    "connected": "#2266aa",
    "non_connected": "#cc7722",
    "micropore": "#338844",
}
_FALLBACK_COLORS = ("#884499", "#aa3355", "#557788", "#999933")
# a sample whose class the relation does not list: it has no line to match
_UNLISTED_COLOR = "#888888"

_VIEW_W, _VIEW_H = 640.0, 480.0
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70.0, 160.0, 20.0, 50.0


@dataclass
class _LogAxis:
    lo_decade: int
    hi_decade: int
    px_lo: float
    px_hi: float

    def place(self, value: float) -> float:
        t = ((math.log10(value) - self.lo_decade)
             / (self.hi_decade - self.lo_decade))
        return self.px_lo + t * (self.px_hi - self.px_lo)

    def clamp(self, value: float) -> float:
        return min(max(value, 10.0 ** self.lo_decade), 10.0 ** self.hi_decade)


def _decade_bounds(values: list[float], fallback: tuple[int, int]) -> tuple[int, int]:
    finite = [v for v in values if v > 0 and math.isfinite(v)]
    if not finite:
        return fallback
    lo = math.floor(math.log10(min(finite)))
    hi = math.ceil(math.log10(max(finite)))
    if lo == hi:
        lo, hi = lo - 1, hi + 1
    return lo, hi


def _geomspace(lo: float, hi: float, num: int) -> list[float]:
    """``np.geomspace(lo, hi, num)`` for 0 < lo <= hi and num >= 2, in math.

    The same formula: 10 to the power of evenly spaced log10 values, and
    both endpoints exact. Inner points may differ from numpy's by a few ulp.
    """
    log_lo = math.log10(lo)
    step = (math.log10(hi) - log_lo) / (num - 1)
    return [lo, *(10.0 ** (i * step + log_lo) for i in range(1, num - 1)), hi]


def _class_color(name: str, order: list[str]) -> str:
    if name in _CLASS_COLORS:
        return _CLASS_COLORS[name]
    if name not in order:
        return _UNLISTED_COLOR
    extras = [c for c in order if c not in _CLASS_COLORS]
    return _FALLBACK_COLORS[extras.index(name) % len(_FALLBACK_COLORS)]


def emit_camo_chart(relation: CamoRelation, samples: list[ChartSample],
                    svg_path, csv_path=None) -> None:
    """Write the porosity-permeability identifier chart as deterministic SVG.

    Log-log axes; one power-law line per relation class and one marker per
    sample, colored by class (grey for a class the relation does not list)
    and labeled with its rock-type code.
    Identical inputs produce byte-identical files: fixed palette and
    layout, fixed float formatting, no timestamps. A companion CSV
    tabulates the plotted values when csv_path is given.
    """
    for s in samples:
        if not (s.phi > 0 and s.k_md > 0):
            raise NonPositiveValue(
                f"chart sample needs positive phi and k, got "
                f"({s.phi}, {s.k_md})")
    class_order = sorted(relation.classes())
    phi_vals = [s.phi for s in samples]
    k_vals = [s.k_md for s in samples]
    for name in class_order:
        coeffs = relation[name]
        lo = max(coeffs.phi_min, 1e-3)
        hi = max(coeffs.phi_max, lo)
        phi_vals += [lo, hi]
        k_vals += [coeffs.permeability(lo), coeffs.permeability(hi)]
    x_lo, x_hi = _decade_bounds(phi_vals, (-3, 0))
    y_lo, y_hi = _decade_bounds(k_vals, (-2, 4))
    x_axis = _LogAxis(x_lo, x_hi, _MARGIN_L, _VIEW_W - _MARGIN_R)
    y_axis = _LogAxis(y_lo, y_hi, _VIEW_H - _MARGIN_B, _MARGIN_T)

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_VIEW_W:.0f} {_VIEW_H:.0f}" '
        f'font-family="sans-serif" font-size="12">')
    out.append(f'<rect x="0" y="0" width="{_VIEW_W:.0f}" height="{_VIEW_H:.0f}" '
               f'fill="#ffffff"/>')
    # gridlines and tick labels at every decade
    for d in range(x_lo, x_hi + 1):
        px = x_axis.place(10.0 ** d)
        out.append(f'<line x1="{px:.2f}" y1="{_MARGIN_T:.2f}" x2="{px:.2f}" '
                   f'y2="{_VIEW_H - _MARGIN_B:.2f}" stroke="#dddddd"/>')
        out.append(f'<text x="{px:.2f}" y="{_VIEW_H - _MARGIN_B + 16:.2f}" '
                   f'text-anchor="middle">{10.0 ** d:g}</text>')
    for d in range(y_lo, y_hi + 1):
        py = y_axis.place(10.0 ** d)
        out.append(f'<line x1="{_MARGIN_L:.2f}" y1="{py:.2f}" '
                   f'x2="{_VIEW_W - _MARGIN_R:.2f}" y2="{py:.2f}" '
                   f'stroke="#dddddd"/>')
        out.append(f'<text x="{_MARGIN_L - 6:.2f}" y="{py + 4:.2f}" '
                   f'text-anchor="end">{10.0 ** d:g}</text>')
    out.append(f'<rect x="{_MARGIN_L:.2f}" y="{_MARGIN_T:.2f}" '
               f'width="{_VIEW_W - _MARGIN_R - _MARGIN_L:.2f}" '
               f'height="{_VIEW_H - _MARGIN_B - _MARGIN_T:.2f}" '
               f'fill="none" stroke="#333333"/>')
    out.append(f'<text x="{(_MARGIN_L + _VIEW_W - _MARGIN_R) / 2:.2f}" '
               f'y="{_VIEW_H - 10:.2f}" text-anchor="middle">'
               f'porosity (fraction)</text>')
    out.append(f'<text x="16" y="{(_MARGIN_T + _VIEW_H - _MARGIN_B) / 2:.2f}" '
               f'text-anchor="middle" transform="rotate(-90 16 '
               f'{(_MARGIN_T + _VIEW_H - _MARGIN_B) / 2:.2f})">'
               f'permeability (mD)</text>')

    for name in class_order:
        coeffs = relation[name]
        color = _class_color(name, class_order)
        lo = x_axis.clamp(max(coeffs.phi_min, 1e-12))
        hi = x_axis.clamp(max(coeffs.phi_max, coeffs.phi_min, 1e-12))
        if hi <= lo:
            continue
        phis = _geomspace(lo, hi, 64)
        points = " ".join(
            f"{x_axis.place(p):.2f},"
            f"{y_axis.place(y_axis.clamp(coeffs.permeability(p))):.2f}"
            for p in phis)
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                   f'points="{points}"/>')

    for s in samples:
        color = _class_color(s.camo_class, class_order)
        px = x_axis.place(x_axis.clamp(s.phi))
        py = y_axis.place(y_axis.clamp(s.k_md))
        out.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="{color}" '
                   f'stroke="#222222"/>')
        if s.code:
            out.append(f'<text x="{px + 6:.2f}" y="{py - 6:.2f}">{s.code}</text>')

    lx = _VIEW_W - _MARGIN_R + 12
    ly = _MARGIN_T + 10
    for i, name in enumerate(class_order):
        color = _class_color(name, class_order)
        y = ly + 18 * i
        out.append(f'<line x1="{lx:.2f}" y1="{y:.2f}" x2="{lx + 22:.2f}" '
                   f'y2="{y:.2f}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 28:.2f}" y="{y + 4:.2f}">{name}</text>')
    out.append("</svg>")

    write_text(svg_path, "\n".join(out) + "\n")

    if csv_path is not None:
        rows = [["phi", "k_md", "camo_class", "code", "k_camo_md"]]
        for s in samples:
            if s.camo_class in relation:
                k_pred = f"{relation[s.camo_class].permeability(s.phi):.12g}"
            else:
                k_pred = ""
            rows.append([f"{s.phi:.12g}", f"{s.k_md:.12g}", s.camo_class,
                         s.code, k_pred])
        write_csv(csv_path, rows)
