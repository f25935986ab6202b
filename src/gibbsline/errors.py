"""Exception and warning types shared across the package."""

from __future__ import annotations


class GibbslineError(Exception):
    """Base class for every package-specific error."""


class ValidationError(GibbslineError):
    """Invalid input, configuration, or violated precondition."""


class ParseError(ValidationError):
    """Config text could not be parsed; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class NonTransitive(ValidationError):
    """No finite augmentation of the prefix alphabet gives an irreducible truncation."""


class DeadEndSymbol(ValidationError):
    """The symbol has no outgoing admissible edge."""


class NoTailDescriptor(ValidationError):
    """An infinite-alphabet claim was requested without a tail majorant."""


class InvalidT(ValidationError):
    """Inverse temperature outside the admissible range."""


class BudgetExceeded(ValidationError):
    """An enumeration would exceed the configured budget."""


class AlphabetTooLarge(ValidationError):
    """The operation needs a materialized incidence matrix but the alphabet is too big."""


class SolverError(GibbslineError):
    """Base class for numerical-solver failures (CLI exit code 3)."""


class EmptyCriticalGraph(SolverError):
    """No tight cycle found, even at the widest tie tolerance of the ladder."""

    def __init__(self, tie_tol: float):
        super().__init__(f"no tight cycle within tie_tol={tie_tol:g}")
        self.tie_tol = tie_tol


class NoConvergence(SolverError):
    """Power iteration did not reach the requested residual."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(f"no convergence after {iterations} iterations (residual {residual:.3e})")
        self.iterations = iterations
        self.residual = residual


class NotConverged(SolverError):
    """A limit sequence did not settle below the requested tolerance."""

    def __init__(self, gap: float, what: str = "sequence"):
        super().__init__(f"{what} not converged (final gap {gap:.3e})")
        self.gap = gap


class NotStabilized(SolverError):
    """The critical structure did not stabilize within the truncation schedule."""

    def __init__(self, k_max: int):
        super().__init__(f"critical structure not stabilized up to k={k_max}")
        self.k_max = k_max


class StoreError(GibbslineError):
    """Base class for run-store failures."""


class MissingRun(StoreError):
    """No run directory with the given id."""


class NonMixingModel(UserWarning):
    """Warning category: a mixing-only diagnostic ran on a non-mixing model."""
