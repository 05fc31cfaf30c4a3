"""Exception hierarchy shared by all modules."""


class QuasihermError(Exception):
    """Base class for every error raised by this package."""


class LocatedError(QuasihermError):
    """A refused matrix: the message reads "matrix <what>[ at t=<t>]<detail>",
    naming the matrix's time t only when it is given."""
    def __init__(self, what: str, t: float | None, detail: str = ""):
        self.t = t
        loc = "" if t is None else f" at t={t:g}"
        super().__init__(f"matrix {what}{loc}{detail}")


class NotHermitian(LocatedError):
    def __init__(self, defect: float, t: float | None = None):
        self.defect = defect
        super().__init__("is not Hermitian", t, f" (defect {defect:.3e})")


class NotPositiveDefinite(LocatedError):
    def __init__(self, lambda_min: float, lambda_max: float, t: float | None = None):
        self.lambda_min = lambda_min
        self.lambda_max = lambda_max
        super().__init__("is not positive definite", t,
                         f" (lambda_min={lambda_min:.6g}, lambda_max={lambda_max:.6g})")


class IllConditioned(LocatedError):
    def __init__(self, cond: float, t: float | None = None):
        self.cond = cond
        super().__init__("is ill-conditioned", t, f" (cond={cond:.3e})")


class NotFinite(LocatedError, ValueError):
    """A matrix entry is inf or nan: given so, or overflowed in the arithmetic."""
    def __init__(self, t: float | None = None):
        super().__init__("entries must be finite", t)


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
