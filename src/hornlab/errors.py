"""Exception types shared across the package."""


class HornlabError(Exception):
    """Base class for all package errors."""


class MetricSingularError(HornlabError):
    """Metric evaluation requested at a stratum (collapsed horn block)."""


class CurvatureUndefinedError(HornlabError):
    """Sectional curvature requested for a factor that is not 2-dimensional."""


class IntegrationError(HornlabError):
    """Geodesic integration failed; carries the last valid state."""

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class ConnectError(HornlabError):
    """Boundary value solve did not converge within budget.

    Carries the best path found and its length, an upper bound on the
    distance, plus a crude lower bound so callers can report an interval.
    """

    def __init__(self, message, best_path=None, upper=None, lower=None):
        super().__init__(message)
        self.best_path = best_path
        self.upper = upper
        self.lower = lower


class DistanceIntervalError(HornlabError):
    """Distance known only as an interval [lower, upper]."""

    def __init__(self, lower, upper):
        super().__init__(f"distance only certified within [{lower}, {upper}]")
        self.lower = lower
        self.upper = upper


class QuadratureError(HornlabError):
    """Richardson extrapolation of a quadrature did not settle."""

    def __init__(self, message, coarse=None, fine=None):
        super().__init__(message)
        self.coarse = coarse
        self.fine = fine


class BasinError(HornlabError):
    """Heat flow escaped toward a stratum: seed outside the basin."""


class FlowBudgetError(HornlabError):
    """Heat flow spent its iteration budget neither converged nor escaped;
    carries the flow's ``FlowReport``."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
