"""Exception types shared across the package."""


class A2ZetaError(Exception):
    """Base class for all package errors."""


class IndexOutOfRange(A2ZetaError):
    """A structure references an id outside the declared range."""


class ValidationFailure(A2ZetaError):
    """A complex failed a structural invariant; carries the first failing check."""

    def __init__(self, check, detail=""):
        self.check = check
        self.detail = detail
        super().__init__(f"{check}: {detail}" if detail else check)


class IdentityFailure(ValidationFailure):
    """The relation of character j fails modulo the prime p, so the main identity fails."""

    def __init__(self, j, p):
        self.j = j
        self.p = p
        super().__init__("main_identity", f"the relation of character j={j} fails mod p={p}")


class ParseError(A2ZetaError):
    """Malformed input file; carries a 1-based line number."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class UnsupportedOrder(A2ZetaError):
    """q is not a prime power, or exceeds gf.MAX_ORDER = 1024."""


class PresentationInvalid(A2ZetaError):
    """A triangle presentation violates one of its defining conditions."""


class ResourceLimit(A2ZetaError):
    """An enumeration exceeded its configured node or vertex budget."""


class SingularInput(A2ZetaError):
    """A matrix that must be invertible has zero determinant."""


class BallTooSmall(A2ZetaError):
    """The requested computation needs a larger ball radius."""


class NotAGallery(A2ZetaError):
    """A chamber sequence is not a closed gallery of the required shape."""


class DegreeTooLow(A2ZetaError):
    """Graph degrees too low: zeta functions need at least 2, the spectral test 1."""


class NotRegular(A2ZetaError):
    """The graph is not regular of the expected valency."""
