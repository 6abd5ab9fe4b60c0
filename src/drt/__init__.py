"""Digital rock typing: from micro-CT volumes to carbonate rock-type codes.

The pipeline covers supervised voxel segmentation (Gaussian/DoG feature
bank plus a from-scratch random forest), histogram-mixture thresholding,
pore-space morphology (components, distance fields, local thickness),
petrophysical properties (porosity, modality, porosity-permeability
laws), capillary pressure curves, and the rock-type catalog rule engine
with its porosity-permeability chart.

The public names resolve lazily (PEP 562): ``import drt`` loads no layer,
and ``drt.X`` or ``from drt import X`` imports only the module that
defines X. So a CLI stage pays for numpy and scipy only when it runs code
that needs them.
"""

import importlib

__version__ = "0.1.0"

# the public names of each module, by the module that defines them
_EXPORTS = {
    "capillary": ("build_pc_curve", "evaluate_pc", "export_pc_csv",
                  "fit_pfunction", "load_pc_curve_json", "PcCurve",
                  "pc_shape_features", "pcd_from_permeability", "PFunction",
                  "save_pc_curve_json"),
    "config": ("FeatureBankConfig", "ForestHyperparameters"),
    "errors": ("BadHeader", "BadHyperparameters", "BadModelFile",
               "BadOrdering", "BadParams", "BadSigmaOrder", "ConfigError",
               "DegenerateHistogram", "DimensionMismatch", "DrtError",
               "EmptyClass", "InputError", "InsufficientSamples", "IoError",
               "IoFailure", "MalformedCode", "MissingArtifacts",
               "MissingClassCoefficients", "NoConvergence",
               "NonPositiveInput", "NonPositiveValue", "NoPoreVoxels",
               "NumericError", "SaturationOutOfRange", "SigmaTooLarge",
               "SizeMismatch", "TooFewPoints", "UnknownClassId",
               "VersionMismatch"),
    "filters": ("build_feature_stack", "difference_of_gaussian",
                "fit_histogram_gmm", "gaussian_kernel_1d", "gaussian_smooth",
                "iroga_threshold"),
    "forest": ("ForestModel", "load_labels_csv", "load_model",
               "MODEL_FORMAT_VERSION", "save_model", "segment_volume",
               "train_forest", "TrainingSet"),
    "morphology": ("apply_calibration", "binary_mask", "ComponentMap",
                   "connected_components", "euclidean_distance_transform",
                   "fit_intensity_calibration", "IntensityThroatCalibration",
                   "local_thickness", "PoreThroatDistribution",
                   "throat_distribution"),
    "petro": ("BANDS", "CAMO_CLASSES", "CamoCoefficients", "CamoRelation",
              "classify_modality", "DEFAULT_CAMO", "estimate_permeability",
              "fit_camo", "load_camo", "load_camo_samples_csv",
              "MODALITY_ARCHETYPES", "ModalityArchetype", "ModalityProfile",
              "PermeabilityEstimate", "porosity_from_labels",
              "PRESENCE_EPSILON", "save_camo", "select_camo_class"),
    "phantoms": ("DEFAULT_INTENSITIES", "make_phantom"),
    "rng": ("SplitMix64",),
    "rocktype": ("CamoCheck", "camo_check", "CatalogRule", "ChartSample",
                 "classify", "DecodedCode", "decode_code", "default_catalog",
                 "emit_camo_chart", "load_catalog", "PERM_CLASS_BOUNDS",
                 "RockTypeResult", "save_catalog", "SWI_CLASS_BOUNDS",
                 "UNCLASSIFIED"),
    "volume": ("load_volume", "save_volume", "sidecar_path", "Volume",
               "VolumeHeader"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
