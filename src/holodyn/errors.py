"""Exception hierarchy shared by all holodyn modules."""
from __future__ import annotations


class HolodynError(Exception):
    """Base class for domain errors (CLI maps these to exit code 1)."""


class Overflow(HolodynError):
    """An intermediate coordinate exceeded the magnitude cap.

    Signals orbit escape rather than numerical failure; carries the
    offending magnitude and the step index at which it occurred.
    """

    def __init__(self, magnitude: float, step: int):
        super().__init__(f"coordinate magnitude {magnitude:.3e} exceeded cap at step {step}")
        self.magnitude = magnitude
        self.step = step


class NoConvergence(HolodynError):
    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class SingularDifferential(HolodynError):
    """Newton matrix numerically singular; carries conditioning info."""

    def __init__(self, det: complex, scale: float):
        super().__init__(
            f"Newton matrix singular: |det| = {abs(det):.3e} against scale {scale:.3e}"
        )
        self.det = det
        self.scale = scale


class NotASaddle(HolodynError):
    pass


class DeltaTooLarge(HolodynError):
    """Graph-transform contraction estimate too close to 1; shrink delta."""

    def __init__(self, message: str, ratio: float | None = None):
        super().__init__(message)
        self.ratio = ratio


class MeshMismatch(HolodynError):
    pass


class Inconclusive(HolodynError):
    """Orbit neither escaped nor landed near the graph within the budget."""


class NotTangentToIdentity(HolodynError):
    pass


class VNotNormalized(HolodynError):
    pass


class DegenerateDirection(HolodynError):
    pass


class BlowupSingular(HolodynError):
    pass


class NoSurvivor(HolodynError):
    def __init__(self, message: str, level: int, horizon: int):
        super().__init__(message)
        self.level = level
        self.horizon = horizon


class Ambiguous(HolodynError):
    """Two separated cell clusters survived refinement (parameter misuse)."""


class PoleHit(HolodynError):
    def __init__(self, step: int):
        super().__init__(f"iterate hit the pole 1 + z = 0 at step {step}")
        self.step = step


class NotFound(HolodynError):
    def __init__(self, message: str, deepest: float | None = None):
        super().__init__(message)
        self.deepest = deepest


class EmptySample(HolodynError):
    pass


class AmbiguousComponent(HolodynError):
    """Two target-set components claim the same point (bad parameters)."""


class TangencyViolation(HolodynError):
    pass


class InvalidParameter(HolodynError, ValueError):
    """A parameter outside its domain (CLI maps this to exit code 2)."""


class MapFormatError(HolodynError):
    """Malformed map/sequence definition (CLI maps this to exit code 2)."""
