"""Error taxonomy shared by every module.

Validation errors (bad inputs or configs) are distinct from numerical
failures (divergence, NaN) so the CLI can map them to different exit codes.
"""


class MolrmogError(Exception):
    """Base class for all package errors."""


class ValidationError(MolrmogError):
    """Bad inputs, configs, or dimension bookkeeping. CLI exit code 2."""


class NumericalError(MolrmogError):
    """Runtime numerical failure during iteration. CLI exit code 3."""


class InvalidScheduleParams(ValidationError):
    pass


class TimeOutOfRange(ValidationError):
    pass


class SingularNoise(ValidationError):
    pass


class NonOrthonormalBasis(ValidationError):
    pass


class WeightsNotNormalized(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class EmptyDataset(ValidationError):
    pass


class GridEmpty(ValidationError):
    pass


class RankNotOne(ValidationError):
    pass


class NonPositiveAlpha(ValidationError):
    pass


class LSmallerThanAlpha(ValidationError):
    pass


class ConfigParseError(ValidationError):
    pass


class UnknownSubcommand(ValidationError):
    pass


class NoArtifactsFound(ValidationError):
    pass


class DivergenceDetected(NumericalError):
    pass


class NaNDetected(NumericalError):
    pass
