"""Exception hierarchy shared by all modules."""


class QuasihermError(Exception):
    """Base class for every error raised by this package."""


class NotHermitian(QuasihermError):
    def __init__(self, defect: float, t: float | None = None):
        self.defect = defect
        self.t = t
        loc = "" if t is None else f" at t={t:g}"
        super().__init__(f"matrix is not Hermitian{loc} (defect {defect:.3e})")


class NotPositiveDefinite(QuasihermError):
    def __init__(self, lambda_min: float, lambda_max: float, t: float | None = None):
        self.lambda_min = lambda_min
        self.lambda_max = lambda_max
        self.t = t
        loc = "" if t is None else f" at t={t:g}"
        super().__init__(
            f"matrix is not positive definite{loc} "
            f"(lambda_min={lambda_min:.6g}, lambda_max={lambda_max:.6g})"
        )


class IllConditioned(QuasihermError):
    def __init__(self, cond: float, t: float | None = None):
        self.cond = cond
        self.t = t
        loc = "" if t is None else f" at t={t:g}"
        super().__init__(f"matrix is ill-conditioned{loc} (cond={cond:.3e})")


class NotFinite(QuasihermError, ValueError):
    """A matrix entry is inf or nan: given so, or overflowed in the arithmetic."""
    def __init__(self, t: float | None = None):
        self.t = t
        loc = "" if t is None else f" at t={t:g}"
        super().__init__(f"matrix entries must be finite{loc}")


class SpaceMismatch(QuasihermError):
    """A vector carried the wrong space tag for the requested operation."""


class BasisNotOrthonormal(QuasihermError):
    def __init__(self, defect: float):
        self.defect = defect
        super().__init__(f"basis is not orthonormal (Gram defect {defect:.3e})")


class OutOfRange(QuasihermError):
    """Schedule evaluated outside its time span."""


class NotMeasurable(QuasihermError):
    """Errors vanish to rounding level; a convergence order cannot be measured."""


class ParseError(QuasihermError):
    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


class ValidationError(QuasihermError):
    """Scenario content is syntactically fine but semantically rejected."""
