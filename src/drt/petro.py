"""Petrophysics: porosity, pore-size modality, porosity-permeability laws.

Porosity counts pore-class voxels plus a configurable fraction of each
micropore-class voxel. Modality compares the (micro, meso, macro) band
fractions of a throat distribution against a fixed archetype table.
Permeability uses per-class power laws k = a * phi**b selected by pore
connectivity and band dominance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (BadParams, InsufficientSamples, MissingClassCoefficients,
                     NonPositiveValue, UnknownClassId)
from .fileio import json_typed, read_csv, read_json, write_json

if TYPE_CHECKING:  # used in annotations only, so classify loads neither
    from .morphology import ComponentMap, PoreThroatDistribution
    from .volume import Volume

BANDS = ("micro", "meso", "macro")
PRESENCE_EPSILON = 0.10

CAMO_CLASSES = ("connected", "non_connected", "micropore")


def porosity_from_labels(labels: Volume, pore_classes,
                         micropore_classes=frozenset(),
                         micro_weight: float = 0.5,
                         n_classes: int | None = None) -> float:
    """Volume fraction of pore space, micropore voxels partially weighted.

    phi = (N_pore + micro_weight * N_micropore) / N_total. The two class
    sets must be disjoint; when ``n_classes`` is given, every label in the
    volume must lie in [0, n_classes).
    """
    import numpy as np

    from .morphology import binary_mask

    pore, micro = frozenset(pore_classes), frozenset(micropore_classes)
    if pore & micro:
        raise BadParams(
            f"pore and micropore classes overlap: {sorted(pore & micro)}")
    if not 0.0 <= micro_weight <= 1.0:
        raise BadParams(f"micro_weight must be in [0, 1], got {micro_weight}")
    n_pore = np.count_nonzero(binary_mask(labels, pore).data)
    n_micro = np.count_nonzero(binary_mask(labels, micro).data) if micro else 0
    data = labels.data
    if n_classes is not None:
        top = int(data.max())
        if top >= n_classes or int(data.min()) < 0:
            raise UnknownClassId(
                f"label {top} outside the declared range [0, {n_classes})")
        bad = {c for c in pore | micro if c >= n_classes}
        if bad:
            raise UnknownClassId(
                f"class ids {sorted(bad)} outside the declared range "
                f"[0, {n_classes})")
    return (n_pore + micro_weight * n_micro) / data.size


@dataclass(frozen=True)
class ModalityArchetype:
    """A named reference point in (micro, meso, macro) fraction space."""

    name: str
    modality: str
    fractions: tuple[float, float, float]

    def present(self, epsilon: float) -> tuple[bool, bool, bool]:
        return tuple(f >= epsilon for f in self.fractions)


def _dual(lo_band: str, hi_band: str, lo: float) -> "ModalityArchetype":
    hi = 1.0 - lo
    fr = {"micro": 0.0, "meso": 0.0, "macro": 0.0}
    fr[lo_band], fr[hi_band] = lo, hi
    return ModalityArchetype(
        name=f"{lo_band} {round(lo * 100)}% / {hi_band} {round(hi * 100)}%",
        modality="Dual",
        fractions=(fr["micro"], fr["meso"], fr["macro"]))


MODALITY_ARCHETYPES: tuple[ModalityArchetype, ...] = (
    ModalityArchetype("micro 20% / meso 50% / macro 30%", "Triple",
                      (0.20, 0.50, 0.30)),
    ModalityArchetype("micro 20% / meso 30% / macro 50%", "Triple",
                      (0.20, 0.30, 0.50)),
    _dual("micro", "meso", 0.25),
    _dual("micro", "meso", 0.50),
    _dual("micro", "meso", 0.75),
    _dual("micro", "macro", 0.25),
    _dual("micro", "macro", 0.50),
    _dual("micro", "macro", 0.75),
    _dual("meso", "macro", 0.25),
    _dual("meso", "macro", 0.50),
    _dual("meso", "macro", 0.75),
    ModalityArchetype("micro 100%", "Singular", (1.0, 0.0, 0.0)),
    ModalityArchetype("meso 100%", "Singular", (0.0, 1.0, 0.0)),
    ModalityArchetype("macro 100%", "Singular", (0.0, 0.0, 1.0)),
)

_MODALITY_BY_COUNT = {1: "Singular", 2: "Dual", 3: "Triple"}


@dataclass(frozen=True)
class ModalityProfile:
    """Result of matching band fractions against the archetype table."""

    modality: str
    archetype: str
    fractions: tuple[float, float, float]
    archetype_fractions: tuple[float, float, float]
    distance: float
    present: tuple[bool, bool, bool]

    def to_json_dict(self) -> dict:
        return {
            "modality": self.modality,
            "archetype": self.archetype,
            "fractions": list(self.fractions),
            "archetype_fractions": list(self.archetype_fractions),
            "distance": self.distance,
            "present_bands": [b for b, p in zip(BANDS, self.present) if p],
        }


def classify_modality(distribution: PoreThroatDistribution,
                      epsilon: float = PRESENCE_EPSILON) -> ModalityProfile:
    """Match a throat distribution's band fractions to the nearest archetype.

    A band is present when its fraction is at least epsilon; the modality
    is the number of present bands (Singular, Dual, Triple). Candidates
    are the archetypes with the same presence pattern at the same epsilon,
    and the winner minimizes Euclidean distance on the raw fraction
    triple (first table entry wins ties).
    """
    if not 0.0 < epsilon < 1.0 / 3.0:
        raise BadParams(f"epsilon must be in (0, 1/3), got {epsilon}")
    fr = distribution.fractions
    if not (all(f >= 0 for f in fr) and abs(sum(fr) - 1.0) <= 1e-9):
        raise BadParams(f"band fractions must be >= 0 and sum to 1, got {fr}")
    present = tuple(f >= epsilon for f in fr)
    candidates = [a for a in MODALITY_ARCHETYPES if a.present(epsilon) == present]
    if not candidates:
        # sum-to-1 with epsilon < 1/3 guarantees a present band, so this
        # only triggers for presence patterns missing from the table
        candidates = list(MODALITY_ARCHETYPES)
    best, best_d = None, math.inf
    for a in candidates:
        d = math.dist(fr, a.fractions)
        if d < best_d:
            best, best_d = a, d
    return ModalityProfile(
        modality=_MODALITY_BY_COUNT[sum(present)], archetype=best.name,
        fractions=fr, archetype_fractions=best.fractions, distance=best_d,
        present=present)


@dataclass(frozen=True)
class CamoCoefficients:
    """One class's porosity-permeability power law k = a * phi**b."""

    a: float
    b: float
    phi_min: float
    phi_max: float

    def permeability(self, phi: float) -> float:
        if not phi >= 0:
            raise NonPositiveValue(f"porosity must be >= 0, got {phi}")
        if phi == 0.0:
            if self.b > 0:
                return 0.0
            raise NonPositiveValue(
                f"phi = 0 is outside the power law with exponent {self.b}")
        return self.a * phi ** self.b

    def contains(self, phi: float) -> bool:
        return self.phi_min <= phi <= self.phi_max


@dataclass(frozen=True)
class CamoRelation:
    """Per-class porosity-permeability relations keyed by class name."""

    coefficients: dict[str, CamoCoefficients]

    def __getitem__(self, camo_class: str) -> CamoCoefficients:
        try:
            return self.coefficients[camo_class]
        except KeyError:
            raise MissingClassCoefficients(
                f"no coefficients for class '{camo_class}'") from None

    def __contains__(self, camo_class: str) -> bool:
        return camo_class in self.coefficients

    def classes(self) -> tuple[str, ...]:
        return tuple(self.coefficients)

    def to_json_dict(self) -> dict:
        return {
            name: {"a": c.a, "b": c.b,
                   "phi_min": c.phi_min, "phi_max": c.phi_max}
            for name, c in self.coefficients.items()
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CamoRelation":
        coeffs = {}
        for name, row in d.items():
            try:
                coeffs[name] = CamoCoefficients(
                    **{key: float(json_typed(row[key], float, key))
                       for key in ("a", "b", "phi_min", "phi_max")})
            except (KeyError, TypeError, ValueError) as exc:
                raise BadParams(
                    f"bad coefficient row for class '{name}': {exc}") from exc
        return cls(coefficients=coeffs)


DEFAULT_CAMO = CamoRelation(coefficients={
    "connected": CamoCoefficients(a=500.0, b=3.0, phi_min=0.05, phi_max=0.40),
    "non_connected": CamoCoefficients(a=50.0, b=3.0, phi_min=0.02, phi_max=0.30),
    "micropore": CamoCoefficients(a=5.0, b=3.0, phi_min=0.01, phi_max=0.25),
})


def fit_camo(samples) -> CamoRelation:
    """Fit per-class power laws from (phi, k_md, camo_class) samples.

    Each class needs at least two samples with distinct porosities;
    porosities must lie in (0, 1) and permeabilities must be positive.
    The fit is least squares on log10 k versus log10 phi.
    """
    import numpy as np

    by_class: dict[str, list[tuple[float, float]]] = {}
    for i, (phi, k, name) in enumerate(samples):
        phi, k = float(phi), float(k)
        if not (math.isfinite(phi) and math.isfinite(k)):
            raise NonPositiveValue(
                f"sample {i}: phi and k must be finite, got ({phi}, {k})")
        if phi <= 0 or k <= 0:
            raise NonPositiveValue(
                f"sample {i}: phi and k must be > 0, got ({phi}, {k})")
        if phi >= 1:
            raise BadParams(f"sample {i}: phi must be < 1, got {phi}")
        by_class.setdefault(str(name), []).append((phi, k))
    if not by_class:
        raise InsufficientSamples("no samples to fit")
    coeffs = {}
    for name, pts in sorted(by_class.items()):
        phis = np.array([p for p, _ in pts])
        ks = np.array([k for _, k in pts])
        if np.unique(phis).size < 2:
            raise InsufficientSamples(
                f"class '{name}' needs >= 2 samples with distinct "
                f"porosities, got {len(pts)}")
        b, log_a = np.polyfit(np.log10(phis), np.log10(ks), 1)
        coeffs[name] = CamoCoefficients(
            a=float(10.0 ** log_a), b=float(b),
            phi_min=float(phis.min()), phi_max=float(phis.max()))
    return CamoRelation(coefficients=coeffs)


def load_camo_samples_csv(path) -> list[tuple[float, float, str]]:
    """Read (phi, k_mD, class) fit samples from CSV rows with an optional header."""
    return [tuple(row) for _, row in
            read_csv(path, "phi,k_mD,class", (float, float, str))]


def select_camo_class(profile: ModalityProfile,
                      components: ComponentMap) -> str:
    """Pick the power-law class for a sample's pore space.

    connected when the dominant pore component percolates along any axis;
    otherwise micropore when the micro band fraction is the largest of
    the three; otherwise non_connected.
    """
    if components.dominant_percolates():
        return "connected"
    f_micro, f_meso, f_macro = profile.fractions
    if f_micro > f_meso and f_micro > f_macro:
        return "micropore"
    return "non_connected"


@dataclass(frozen=True)
class PermeabilityEstimate:
    """Permeability prediction with the class and range flag behind it."""

    k_md: float
    camo_class: str
    phi: float
    phi_in_range: bool

    def to_json_dict(self) -> dict:
        return {"k_md": self.k_md, "camo_class": self.camo_class,
                "phi": self.phi, "phi_in_range": self.phi_in_range}


def estimate_permeability(relation: CamoRelation, phi: float,
                          profile: ModalityProfile,
                          components: ComponentMap) -> PermeabilityEstimate:
    """Estimate permeability from porosity via the selected class's law."""
    camo_class = select_camo_class(profile, components)
    coeffs = relation[camo_class]
    return PermeabilityEstimate(
        k_md=coeffs.permeability(float(phi)), camo_class=camo_class,
        phi=float(phi), phi_in_range=coeffs.contains(float(phi)))


def save_camo(relation: CamoRelation, path) -> None:
    write_json(path, relation.to_json_dict())


def load_camo(path) -> CamoRelation:
    return CamoRelation.from_json_dict(read_json(path, BadParams, dict))
