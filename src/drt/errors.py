"""Exception hierarchy shared by all drt modules.

Every error raised by the library derives from DrtError so callers can
catch the whole family. The CLI maps these onto exit codes: input errors
exit 2, numeric/convergence errors exit 3, I/O errors exit 4.
"""

from __future__ import annotations


class DrtError(Exception):
    """Base class for all drt errors."""


class InputError(DrtError):
    """Malformed or out-of-contract input (CLI exit code 2)."""


class NumericError(DrtError):
    """Numeric, convergence, or data-sufficiency failure (CLI exit code 3)."""


class IoError(DrtError):
    """Filesystem or artifact availability failure (CLI exit code 4)."""


# volume
class SizeMismatch(InputError):
    """Raw file length disagrees with the header's element count."""


class BadHeader(InputError):
    """Sidecar header is missing fields or carries invalid values."""


class IoFailure(IoError):
    """Read or write of a volume or report file failed."""


class BadParams(InputError):
    """Phantom or operation parameters outside their valid domain."""


# filters
class SigmaTooLarge(InputError):
    """Gaussian sigma exceeds half the smallest volume dimension."""


class BadSigmaOrder(InputError):
    """Difference-of-Gaussian scales not strictly ascending."""


class DegenerateHistogram(NumericError):
    """Fewer distinct intensities than mixture components."""


class NoConvergence(NumericError):
    """Iterative fit failed to converge within its iteration cap."""


# forest
class EmptyClass(InputError):
    """A declared class has no (or too few) training samples."""


class BadHyperparameters(InputError):
    """Forest hyperparameters outside their valid ranges."""


class DimensionMismatch(InputError):
    """Feature vector length does not match the trained model."""


class BadModelFile(InputError):
    """Model file unreadable or structurally invalid."""


class VersionMismatch(InputError):
    """Model file format version not supported by this reader."""


# morphology
class NoPoreVoxels(NumericError):
    """No finite positive thickness to bin: no pore voxel, or no solid one."""


class TooFewPoints(InputError):
    """Calibration needs at least two control points."""


# petro
class UnknownClassId(InputError):
    """A referenced class id is not part of the class table."""


class InsufficientSamples(NumericError):
    """A regression class has fewer than two samples."""


class NonPositiveValue(InputError):
    """Porosity/permeability sample outside its positive domain."""


class MissingClassCoefficients(InputError):
    """Relation lacks coefficients for the requested morphology class."""


# capillary
class NonPositiveInput(InputError):
    """Permeability, porosity, or coefficient must be positive."""


class BadOrdering(InputError):
    """Capillary curve anchors violate their ordering constraints."""


class SaturationOutOfRange(InputError):
    """Saturation outside the curve's (s_wi, 1] domain."""


# typing / catalog
class MalformedCode(InputError):
    """Rock-type code string does not follow the catalog grammar."""


# cli
class MissingArtifacts(IoError):
    """Report generation could not find a required pipeline output."""


class ConfigError(InputError):
    """Pipeline configuration failed validation."""
