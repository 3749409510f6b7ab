"""Exception hierarchy shared by all surgekit modules."""


class SurgeKitError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SurgeKitError):
    """An input violates a documented precondition (non-finite, out of range)."""


class ModelBreakdownError(SurgeKitError):
    """The state left the region where the model equations are defined (psi <= 0)."""


class DivergenceError(SurgeKitError):
    """A simulation produced a non-finite value or left its model.

    Carries the failure time, the last state, whatever samples were
    recorded up to the failure (``partial`` may be None), and for the
    closed loop the RK stage 1-4 whose rates failed, or None when the
    failing step's result was not finite (``stage``; None for the open
    loop).
    """

    def __init__(self, message, time=None, state=None, partial=None,
                 stage=None):
        super().__init__(message)
        self.time = time
        self.state = state
        self.partial = partial
        self.stage = stage


class AnalysisError(SurgeKitError):
    """A numerical analysis step could not complete (e.g. no bracketed root)."""


class NoEquilibriumError(AnalysisError):
    """No equilibrium flow exists for the requested throttle setting."""


class DegenerateResponseError(AnalysisError):
    """A step response is too flat to fit a tangent through its inflection."""


class ScenarioError(SurgeKitError):
    """A scenario file failed to parse or validate."""
