"""Exception hierarchy shared by all holodyn modules.

Every error is its class and one message.  InvalidParameter is the one
error for bad input, from an option, a map file or a sequence file (CLI
exit code 2); every other HolodynError says a hypothesis does not hold
(exit code 1).
"""
from __future__ import annotations


class HolodynError(Exception):
    """Base class for domain errors (CLI maps these to exit code 1)."""


class Overflow(HolodynError):
    """An intermediate coordinate exceeded the magnitude cap: orbit escape
    rather than numerical failure."""


class NoConvergence(HolodynError):
    pass


class SingularDifferential(HolodynError):
    """Newton matrix numerically singular."""


class NotASaddle(HolodynError):
    pass


class DeltaTooLarge(HolodynError):
    """The local graph's series or its slope does not settle on the delta-disc; shrink delta."""


class Inconclusive(HolodynError):
    """Orbit neither escaped nor landed near the graph within the budget."""


class NotTangentToIdentity(HolodynError):
    pass


class DegenerateDirection(HolodynError):
    pass


class BlowupSingular(HolodynError):
    pass


class NoSurvivor(HolodynError):
    pass


class Ambiguous(HolodynError):
    """Two separated cell clusters survived refinement (parameter misuse)."""


class PoleHit(HolodynError):
    pass


class NotFound(HolodynError):
    pass


class AmbiguousComponent(HolodynError):
    """Two target-set components claim the same point (bad parameters)."""


class InvalidParameter(HolodynError, ValueError):
    """Bad input: a parameter outside its domain, or a malformed value, map
    or sequence definition (CLI maps this to exit code 2)."""
