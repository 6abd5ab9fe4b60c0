"""Feature-bank and forest settings, importable without numpy.

``drt.cli`` parses both from the pipeline config before any stage runs,
so they live apart from the numeric layers that use them. ``drt.filters``
and ``drt.forest`` import them from here and still export them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadHyperparameters
from .fileio import json_array, json_typed

_BOUNDARY_TO_SCIPY = {"mirror": "reflect", "clamp": "nearest"}


@dataclass(frozen=True)
class FeatureBankConfig:
    """Scales and switches defining the per-voxel feature vector.

    Features are ordered [raw?, G(s1)..G(sk), DoG(s1,s2)..DoG(s{k-1},sk)],
    where DoG(a, b) = G(a) - G(b); the count is (1 if include_raw) + k + (k - 1).
    """

    sigmas_vox: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    include_raw: bool = True
    boundary_mode: str = "mirror"

    def __post_init__(self):
        sigmas = tuple(float(s) for s in self.sigmas_vox)
        if not sigmas:
            raise ValueError("sigmas_vox must not be empty")
        if not all(s > 0 for s in sigmas):
            raise ValueError(f"sigmas must be positive, got {sigmas}")
        if any(b >= a for a, b in zip(sigmas[1:], sigmas)):
            raise ValueError(f"sigmas must be strictly ascending, got {sigmas}")
        if self.boundary_mode not in _BOUNDARY_TO_SCIPY:
            raise ValueError(f"boundary_mode must be one of {tuple(_BOUNDARY_TO_SCIPY)}")
        object.__setattr__(self, "sigmas_vox", sigmas)

    @property
    def feature_count(self) -> int:
        k = len(self.sigmas_vox)
        return (1 if self.include_raw else 0) + k + (k - 1)

    def to_json_dict(self) -> dict:
        return {
            "sigmas_vox": list(self.sigmas_vox),
            "include_raw": self.include_raw,
            "boundary_mode": self.boundary_mode,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FeatureBankConfig":
        return cls(
            sigmas_vox=tuple(json_array(d["sigmas_vox"], float, "sigmas_vox")),
            include_raw=json_typed(d["include_raw"], bool, "include_raw"),
            boundary_mode=json_typed(d["boundary_mode"], str, "boundary_mode"),
        )


@dataclass(frozen=True)
class ForestHyperparameters:
    n_trees: int = 100
    max_depth: int = 16
    min_samples_split: int = 2
    features_per_split: int | None = None
    bag_fraction: float = 1.0

    def __post_init__(self):
        if self.n_trees < 1:
            raise BadHyperparameters(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_depth < 1:
            raise BadHyperparameters(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_samples_split < 2:
            raise BadHyperparameters(
                f"min_samples_split must be >= 2, got {self.min_samples_split}")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise BadHyperparameters(
                f"features_per_split must be >= 1, got {self.features_per_split}")
        if not 0.0 < self.bag_fraction <= 1.0:
            raise BadHyperparameters(
                f"bag_fraction must be in (0, 1], got {self.bag_fraction}")

    def resolved_features_per_split(self, n_features: int) -> int:
        if self.features_per_split is not None:
            if self.features_per_split > n_features:
                raise BadHyperparameters(
                    f"features_per_split {self.features_per_split} exceeds "
                    f"feature count {n_features}")
            return self.features_per_split
        return max(1, min(n_features, math.ceil(math.sqrt(n_features))))

    def to_json_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "features_per_split": self.features_per_split,
            "bag_fraction": self.bag_fraction,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ForestHyperparameters":
        return cls(
            n_trees=json_typed(d["n_trees"], int, "n_trees"),
            max_depth=json_typed(d["max_depth"], int, "max_depth"),
            min_samples_split=json_typed(d["min_samples_split"], int,
                                         "min_samples_split"),
            features_per_split=(None if d.get("features_per_split") is None
                                else json_typed(d["features_per_split"], int,
                                                "features_per_split")),
            bag_fraction=float(json_typed(d["bag_fraction"], float,
                                          "bag_fraction")),
        )
