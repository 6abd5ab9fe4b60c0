"""Capillary pressure synthesis.

The displacement pressure comes from permeability and porosity through a
Leverett-style power law p_cd = c * (phi / k)**e. The full drainage curve
is a Brooks-Corey-form power law in effective saturation pinned to two
anchors: Pc(1) = p_cd and Pc(s_w_anchor) = p_cu. Pressures are psi,
permeability mD, saturations fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (BadOrdering, BadParams, InsufficientSamples,
                     NonPositiveInput, SaturationOutOfRange)
from .fileio import json_typed, read_json, write_csv, write_json


class PFunction(NamedTuple):
    """Coefficients (c, e) of the displacement-pressure law c*(phi/k)**e."""

    c: float
    e: float = 0.5


def pcd_from_permeability(k_md: float, phi: float, pfn) -> float:
    """Displacement pressure p_cd = c * (phi / k)**e in psi."""
    c, e = float(pfn[0]), float(pfn[1])
    k_md, phi = float(k_md), float(phi)
    if not k_md > 0:
        raise NonPositiveInput(f"permeability must be > 0 mD, got {k_md}")
    if not 0.0 < phi < 1.0:
        raise NonPositiveInput(f"porosity must be in (0, 1), got {phi}")
    if not c > 0:
        raise NonPositiveInput(f"coefficient c must be > 0, got {c}")
    if not math.isfinite(e):
        raise BadParams(f"exponent e must be finite, got {e}")
    return c * (phi / k_md) ** e


def fit_pfunction(samples) -> PFunction:
    """Fit (c, e) to (k_md, phi, p_cd) triples.

    Least squares of ln p_cd on ln(phi/k); inverts noiseless power-law
    data exactly. Needs at least two samples with distinct phi/k ratios;
    all values must be positive.
    """
    pts = np.asarray(list(samples), dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise BadParams(f"samples must be (k_md, phi, p_cd) triples, "
                        f"got shape {pts.shape}")
    if pts.shape[0] < 2:
        raise InsufficientSamples(
            f"need at least 2 samples, got {pts.shape[0]}")
    if not (np.isfinite(pts).all() and (pts > 0).all()):
        raise NonPositiveInput("all samples must be positive and finite")
    x = np.log(pts[:, 1] / pts[:, 0])
    y = np.log(pts[:, 2])
    if np.unique(x).size < 2:
        # a single abscissa pins c only when p_cd is constant; treat the
        # law as flat there (e = 0, c = geometric mean)
        if np.ptp(y) > 1e-12:
            raise InsufficientSamples(
                "samples share one phi/k ratio but differ in p_cd")
        return PFunction(c=float(math.exp(y.mean())), e=0.0)
    e, log_c = np.polyfit(x, y, 1)
    return PFunction(c=float(math.exp(log_c)), e=float(e))


@dataclass(frozen=True)
class PcCurve:
    """Two-anchor drainage capillary pressure curve.

    Pc(S_w) = p_cd * S_we**(-1/lam) with S_we = (S_w - s_wi)/(1 - s_wi).
    lam is +inf for the degenerate flat curve (p_cu = p_cd). Defined for
    s_wi < S_w <= 1.
    """

    p_cd_psi: float
    p_cu_psi: float
    s_wi: float
    s_w_anchor: float
    lam: float

    def effective_saturation(self, s_w) -> np.ndarray:
        s_w = np.asarray(s_w, dtype=np.float64)
        return (s_w - self.s_wi) / (1.0 - self.s_wi)

    def evaluate(self, s_w):
        scalar = np.isscalar(s_w)
        s_w = np.atleast_1d(np.asarray(s_w, dtype=np.float64))
        outside = ~((s_w > self.s_wi) & (s_w <= 1.0))
        if outside.any():
            bad = s_w[outside][0]
            raise SaturationOutOfRange(
                f"s_w must satisfy {self.s_wi} < s_w <= 1, got {bad}")
        if math.isinf(self.lam):
            out = np.full(s_w.shape, self.p_cd_psi)
        else:
            out = self.p_cd_psi * self.effective_saturation(s_w) ** (-1.0 / self.lam)
        return float(out[0]) if scalar else out

    def to_json_dict(self) -> dict:
        return {
            "p_cd": self.p_cd_psi,
            "p_cu": self.p_cu_psi,
            "s_wi": self.s_wi,
            "lambda": None if math.isinf(self.lam) else self.lam,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PcCurve":
        try:
            p_cd, p_cu, s_wi = (float(json_typed(d[key], float, key))
                                for key in ("p_cd", "p_cu", "s_wi"))
            lam = (math.inf if d["lambda"] is None
                   else float(json_typed(d["lambda"], float, "lambda")))
        except (KeyError, TypeError, ValueError) as exc:
            raise BadParams(f"bad Pc curve JSON: {exc}") from exc
        if math.isinf(lam):
            anchor = _default_anchor(s_wi)
        else:
            # invert the anchor condition p_cu = p_cd * S_we**(-1/lam)
            anchor = s_wi + (1.0 - s_wi) * (p_cd / p_cu) ** lam
        return cls(p_cd_psi=p_cd, p_cu_psi=p_cu, s_wi=s_wi,
                   s_w_anchor=anchor, lam=lam)


def _default_anchor(s_wi: float) -> float:
    return min(s_wi + 0.05, 0.5 * (s_wi + 1.0))


def build_pc_curve(p_cd: float, p_cu: float, s_wi: float,
                   s_w_anchor: float | None = None) -> PcCurve:
    """Solve the power-law exponent so the curve hits both anchors.

    1/lam = ln(p_cu/p_cd) / (-ln S_we(s_w_anchor)); p_cu = p_cd gives the
    flat curve (lam = +inf). Requires 0 < s_wi < s_w_anchor < 1 and finite
    p_cu >= p_cd > 0. s_w_anchor defaults to min(s_wi + 0.05, (s_wi + 1) / 2).
    """
    p_cd, p_cu, s_wi = float(p_cd), float(p_cu), float(s_wi)
    s_w_anchor = _default_anchor(s_wi) if s_w_anchor is None else float(s_w_anchor)
    if not (math.isfinite(p_cd) and math.isfinite(p_cu)):
        raise NonPositiveInput(
            f"p_cd and p_cu must be finite, got {p_cd} and {p_cu}")
    if p_cd <= 0:
        raise NonPositiveInput(f"p_cd must be > 0 psi, got {p_cd}")
    if not 0.0 < s_wi < s_w_anchor < 1.0:
        raise BadOrdering(
            f"need 0 < s_wi < s_w_anchor < 1, got s_wi={s_wi}, "
            f"s_w_anchor={s_w_anchor}")
    if p_cu < p_cd:
        raise BadOrdering(f"p_cu must be >= p_cd, got {p_cu} < {p_cd}")
    if p_cu == p_cd:
        lam = math.inf
    else:
        s_we = (s_w_anchor - s_wi) / (1.0 - s_wi)
        lam = -math.log(s_we) / math.log(p_cu / p_cd)
    return PcCurve(p_cd_psi=p_cd, p_cu_psi=p_cu, s_wi=s_wi,
                   s_w_anchor=s_w_anchor, lam=lam)


def evaluate_pc(curve: PcCurve, s_w):
    """Capillary pressure (psi) at saturation s_w in (s_wi, 1]."""
    return curve.evaluate(s_w)


def pc_shape_features(curve: PcCurve) -> tuple[float, float, float]:
    """The (p_cd, p_cu, s_wi) triple consumed by the rock-typing rules."""
    return (curve.p_cd_psi, curve.p_cu_psi, curve.s_wi)


def save_pc_curve_json(curve: PcCurve, path) -> None:
    write_json(path, curve.to_json_dict())


def load_pc_curve_json(path) -> PcCurve:
    return PcCurve.from_json_dict(read_json(path))


def export_pc_csv(curve: PcCurve, path, n_points: int = 101) -> None:
    """Write `s_w,pc_psi` rows at uniform saturations in [s_wi+1e-3, 1]."""
    if n_points < 2:
        raise BadParams(f"n_points must be >= 2, got {n_points}")
    s = np.linspace(min(curve.s_wi + 1e-3, 1.0), 1.0, n_points)
    pc = curve.evaluate(s)
    write_csv(path, [["s_w", "pc_psi"]]
              + [[f"{sw:.12g}", f"{p:.12g}"] for sw, p in zip(s, pc)])
