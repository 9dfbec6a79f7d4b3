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


class ParseError(A2ZetaError):
    """Malformed input file; carries a 1-based line number."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class UnsupportedOrder(A2ZetaError):
    """q is not a prime and not one of the bundled prime powers 4, 8, 9."""


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


class RootFindingFailure(A2ZetaError):
    """A numerically computed root failed its residual certificate."""


class DegreeTooLow(A2ZetaError):
    """Graph degrees too low: zeta functions need at least 2, the spectral test 1."""


class NotRegular(A2ZetaError):
    """The graph is not regular of the expected valency."""
