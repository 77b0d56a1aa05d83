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


class ConfigurationError(WirescatError, ValueError):
    """Invalid run or solver configuration."""


class DecoupledModeWarning(UserWarning):
    """Impurity on a node of the resonant mode: the cut-off field is the
    scattering among the open modes and depends on the impurity strength."""


class ValidityWarning(UserWarning):
    """Result computed outside its nominal region of validity."""
