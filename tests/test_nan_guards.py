"""NaN fails every range guard of the library API.

A guard written as ``x <= 0`` or ``x < lo or x > hi`` lets NaN through,
since every comparison with NaN is false; each guard here is written so
that the value must pass it, and NaN raises the error the function uses
for that argument.
"""

import math

import numpy as np
import pytest

from drt import (
    BadHeader,
    BadParams,
    ConfigError,
    FeatureBankConfig,
    PFunction,
    PoreThroatDistribution,
    SaturationOutOfRange,
    SigmaTooLarge,
    Volume,
    VolumeHeader,
    build_pc_curve,
    classify_modality,
    evaluate_pc,
    gaussian_smooth,
    make_phantom,
    pcd_from_permeability,
)
from drt.cli import PipelineConfig

NAN = math.nan


def _gray():
    return Volume(VolumeHeader((8, 8, 8), 1.0, "grayscale", "f32"),
                  np.zeros((8, 8, 8), dtype=np.float32))


def _distribution():
    return PoreThroatDistribution(
        bin_edges_um=np.array([1.0, 10.0]), counts=np.array([1]), n_values=1,
        f_micro=NAN, f_meso=0.5, f_macro=0.5,
        t_micro_um=10.0, t_macro_um=100.0, peaks_um=[])


CASES = {
    "VolumeHeader voxel size":
        (BadHeader, lambda: VolumeHeader((8, 8, 8), NAN, "label", "u8")),
    "evaluate_pc scalar":
        (SaturationOutOfRange, lambda: evaluate_pc(build_pc_curve(50, 300, 0.1), NAN)),
    "evaluate_pc array":
        (SaturationOutOfRange,
         lambda: evaluate_pc(build_pc_curve(50, 300, 0.1), [0.5, NAN])),
    "FeatureBankConfig sigma":
        (ValueError, lambda: FeatureBankConfig(sigmas_vox=(NAN,))),
    "gaussian_smooth sigma":
        (SigmaTooLarge, lambda: gaussian_smooth(_gray(), NAN)),
    "classify_modality fraction":
        (BadParams, lambda: classify_modality(_distribution())),
    "make_phantom noise":
        (BadParams, lambda: make_phantom("single_sphere", (8, 8, 8), radius=2.0,
                                         noise_sigma=NAN)),
    "make_phantom radius":
        (BadParams, lambda: make_phantom("single_sphere", (8, 8, 8), radius=NAN)),
    "make_phantom radius range":
        (BadParams, lambda: make_phantom("sphere_pack", (8, 8, 8), n_spheres=1,
                                         radius_range=(NAN, 2.0))),
    "pcd_from_permeability exponent":
        (BadParams, lambda: pcd_from_permeability(10, 0.2, PFunction(1.0, NAN))),
    "PipelineConfig capillary c": (ConfigError, lambda: PipelineConfig(pfunction_c=NAN)),
    "PipelineConfig capillary e": (ConfigError, lambda: PipelineConfig(pfunction_e=NAN)),
    "PipelineConfig p_cu_psi": (ConfigError, lambda: PipelineConfig(p_cu_psi=NAN)),
    "PipelineConfig p_cu_ratio": (ConfigError, lambda: PipelineConfig(p_cu_ratio=NAN)),
}


@pytest.mark.parametrize("case", list(CASES))
def test_nan_fails_the_guard(case):
    error, call = CASES[case]
    with pytest.raises(error):
        call()
