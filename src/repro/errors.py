"""Exception hierarchy shared across the KATO reproduction package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(ReproError):
    """An array argument has an incompatible shape."""


class NotFittedError(ReproError):
    """A model method requiring a fitted model was called before ``fit``."""


class ConvergenceError(ReproError):
    """An iterative numerical procedure failed to converge."""


class NetlistError(ReproError):
    """A circuit netlist is malformed (unknown node, duplicate device, ...)."""


class DesignSpaceError(ReproError):
    """A design-space definition or a candidate point is invalid."""


class OptimizationError(ReproError):
    """A Bayesian-optimization loop was configured or driven incorrectly."""
