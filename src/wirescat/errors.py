"""Exception types raised by the library."""


class WirescatError(Exception):
    """Base class for all library errors."""


class DomainError(WirescatError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ThresholdEnergyError(WirescatError, ValueError):
    """Energy sits exactly on a mode cut-off where the requested formula is
    singular; use the dedicated threshold-limit operations instead."""


class DecoupledModeError(WirescatError, ValueError):
    """The impurity sits on a node of the resonant mode, so the reduced
    near-threshold formulas are 0/0; the full amplitude path stays regular."""


class ConvergenceError(WirescatError, RuntimeError):
    """An iterative limit or extrapolation failed to stabilise."""


class ResolutionError(WirescatError, ValueError):
    """A discrete grid is too coarse to resolve what was asked of it."""


class ConfigurationError(WirescatError, ValueError):
    """Invalid run or solver configuration."""


class DecoupledModeWarning(UserWarning):
    """Impurity decoupled from the resonant mode; returning the incident wave."""


class ValidityWarning(UserWarning):
    """Result computed outside its nominal region of validity."""
