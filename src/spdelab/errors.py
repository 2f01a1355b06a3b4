"""Exception types shared across the laboratory."""


class SpdelabError(Exception):
    """Base class for all errors raised by this package."""


class EvaluationError(SpdelabError):
    """A coefficient or source sample is non-finite or not of its documented shape."""


class ConfigurationError(SpdelabError):
    """Invalid or inconsistent scenario configuration."""


class ParseError(ConfigurationError):
    """Config text could not be parsed (unknown key/section, bad literal)."""


class ValidationError(ConfigurationError):
    """A parsed scenario violates a declared invariant."""


class UnderResolvedError(SpdelabError):
    """Mollification scale too small for the grid.

    Carries ``required_epsilon``, the smallest admissible scale.
    """

    def __init__(self, msg, required_epsilon=None):
        super().__init__(msg)
        self.required_epsilon = required_epsilon


class HypothesisError(SpdelabError):
    """A check was invoked outside its stated hypotheses."""


class SolverError(SpdelabError):
    """Linear system could not be solved."""


class NonConvergenceError(SpdelabError):
    """Fixed-point iteration hit max_iter before the tolerance.

    Carries ``log``, the successive-difference history.
    """

    def __init__(self, msg, log=None):
        super().__init__(msg)
        self.log = log or []


class StabilityError(SpdelabError):
    """Stability guard rejected the step size.

    Carries ``suggested_dt`` when a safe step size can be estimated.
    """

    def __init__(self, msg, suggested_dt=None):
        super().__init__(msg)
        self.suggested_dt = suggested_dt


class ScenarioError(SpdelabError):
    """Simulated paths left the configured domain or otherwise degenerated."""


class DegenerateMassError(ScenarioError):
    """Unnormalized filtering mass became non-positive (under-resolved run)."""


class TestFunctionError(SpdelabError):
    """Weak-form test function unusable (width not finite and positive, or
    support touching the boundary)."""

    __test__ = False  # not a pytest case, despite the name


class SizeError(SpdelabError):
    """Requested allocation exceeds the configured safety limit."""
