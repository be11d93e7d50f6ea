"""Error types shared across the package.

Every exactness contract in the library fails loudly through one of these;
nothing is ever rounded, truncated silently, or coerced to floating point.
"""

__all__ = ["K3PairsError", "BadConstantTerm", "NotDivisible",
           "InternalNonExactDivision", "NonExactDivision", "UnsupportedRank",
           "Mismatch", "NoSolution", "ValidationFailure"]


class K3PairsError(Exception):
    """Base class for all library errors."""


class BadConstantTerm(K3PairsError):
    """log needs constant term 1; exp needs constant term 0."""


class NotDivisible(K3PairsError):
    """An exact polynomial/series division left a remainder."""


class InternalNonExactDivision(K3PairsError):
    """A closed-form matrix entry failed its guaranteed exact division.

    This indicates a bug or an out-of-contract index, never user input.
    """


class NonExactDivision(K3PairsError):
    """A closed-form partition-function term failed its exact division."""


class UnsupportedRank(K3PairsError):
    """Section-space dimension exceeding the sheaf data (r > n) is undefined."""


class Mismatch(K3PairsError):
    """Two routes to the same series disagree.

    Carries the first differing location as a dict of exponents, e.g.
    ``{"q": 3, "y": -1, "u2": 2}``; ``QSeries.assert_agrees`` builds it
    for every series comparison.
    """

    def __init__(self, message, location=None):
        super().__init__(message if location is None
                         else f"{message} at {location}")
        self.location = dict(location) if location else None


class NoSolution(K3PairsError):
    """No combination of monomials within the weight bound gives the series."""


class ValidationFailure(Mismatch):
    """A combination disagrees with the series it must equal.

    A ``Mismatch`` whose location is the first differing ``{v, q}``.
    """
