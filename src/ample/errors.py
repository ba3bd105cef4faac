"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all numerical-engine failures."""


class SeedOutside(EngineError):
    """Flood-fill seed does not satisfy the membership predicate."""


class NotSurrounded(EngineError):
    """No certified surrounding affine basis could be found."""


class MarginExceeded(EngineError):
    """A safety-ball check failed at the finest refinement."""


class NoConvergence(EngineError):
    """A solve or refinement missed its tolerance; carries the residual and
    the value it reached."""

    def __init__(self, message, best_residual=None, best_value=None):
        super().__init__(message)
        self.best_residual = best_residual
        self.best_value = best_value


class BudgetExceeded(EngineError):
    """Doubling search ran out of budget (non-compact or pathological input)."""
