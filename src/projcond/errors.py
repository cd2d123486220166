"""Exception taxonomy shared by all projcond modules."""


class ProjcondError(Exception):
    """Base class for all library errors."""


class InvalidDimensionError(ProjcondError):
    """Dimensions outside their admissible range (e.g. p >= d, k > d - p)."""


class DimensionMismatchError(ProjcondError):
    """Inputs whose shapes are mutually inconsistent."""


class RankDeficientError(ProjcondError):
    """A linear system or frame is numerically singular."""


class ConstraintViolatedError(ProjcondError):
    """A required linear constraint (e.g. B'w_j = x) does not hold."""


class InvalidChainError(ProjcondError):
    """A chain-index specification violates its combinatorial constraints."""


class ThresholdViolatedError(ProjcondError):
    """A dimension threshold required for a Taylor expansion fails."""


class OutsideExpansionRegionError(ProjcondError):
    """The Gram matrix lies outside the region where the expansion is valid."""


class InvalidStructureError(ProjcondError):
    """A monomial has a label below 1 or a degree above what its block allows."""


class DegenerateDensityError(ProjcondError):
    """The estimated projected density is indistinguishable from zero."""


class ConfigError(ProjcondError):
    """An experiment configuration fails validation; names the bad field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")
