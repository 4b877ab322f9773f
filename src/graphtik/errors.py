"""Exception hierarchy.

Two broad families matter downstream: configuration problems (bad inputs,
unusable specs) and numerical failures (solver or quadrature breakdown).
The CLI maps the former to exit code 1 and the latter to exit code 2.
"""


class GraphtikError(Exception):
    """Base class for all package errors."""


class ConfigurationError(GraphtikError):
    """Invalid or unusable input; the request itself is wrong."""


class NumericalFailure(GraphtikError):
    """A numerical routine failed on a valid request."""


class InsufficientSpecificationError(ConfigurationError):
    """Closed-form result requested without the data needed to produce it."""


class ParameterError(ConfigurationError):
    """Scalar parameter outside its documented range."""


class DegenerateAnchorError(ConfigurationError):
    """Anchor vector has a zero entry; the matched potential is undefined."""


class UnsupportedProblemError(ConfigurationError):
    """Requested a closed form (spectrum, forward image) that is not registered."""


class ContractViolationError(ConfigurationError):
    """Input violates a structural precondition (e.g. asymmetric matrix)."""


class EvaluationError(NumericalFailure):
    """A user-supplied function produced a non-finite value."""


class NumericalError(NumericalFailure):
    """Dense linear algebra failure (factorization, SVD)."""


class ToleranceError(NumericalFailure):
    """Quadrature or iteration did not reach the requested tolerance."""


class IllPosedProblemError(NumericalFailure):
    """Regularized normal equations are numerically singular."""
