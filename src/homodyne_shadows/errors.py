"""Exception types shared across the package, and its one check of counts.

Every failure mode that a caller might want to catch programmatically gets
its own class here; generic precondition violations (bad parameter ranges,
mismatched dimensions) raise plain ``ValueError``, and ``_whole`` checks
every count and index that a public entry takes.
"""

import numbers


def _whole(value, what, low=0, high=None):
    """``value`` as an int, or ValueError naming ``what`` unless it is a whole number in low..high.

    Integral floats such as 3.0 pass; 3.7 is refused, not truncated.
    ``high=None`` sets no upper bound.
    """
    if not (isinstance(value, numbers.Real) and float(value).is_integer()):
        raise ValueError("%s must be a whole number, got %r" % (what, value))
    if high is None and value < low:
        raise ValueError("%s must be >= %d, got %d" % (what, low, value))
    if high is not None and not low <= value <= high:
        raise ValueError("%s must lie in %d..%d, got %d" % (what, low, high, value))
    return int(value)


class HomodyneShadowsError(Exception):
    """Base class for all package-specific errors."""


class BinDesignError(HomodyneShadowsError):
    """Bin-design iteration exhausted without reaching full rank.

    ``best_rank`` is the largest measurement-matrix rank seen during the
    search and ``final_half_width`` the last half-width tried.
    """

    def __init__(self, message, best_rank, final_half_width):
        super().__init__(message)
        self.best_rank = int(best_rank)
        self.final_half_width = float(final_half_width)


class StrictModeSingularError(HomodyneShadowsError):
    """Strict frame inversion requested on a (numerically) singular frame."""

    def __init__(self, message, lambda_min):
        super().__init__(message)
        self.lambda_min = float(lambda_min)


class MalformedRecordError(HomodyneShadowsError):
    """A measurement record is unparseable or references an invalid outcome.

    ``ordinal`` locates the offending record: the record index for in-memory
    streams, or the 1-based line number for files.
    """

    def __init__(self, message, ordinal):
        super().__init__(message)
        self.ordinal = int(ordinal)


class InvariantViolationError(HomodyneShadowsError):
    """A loaded or constructed object failed a validation check.

    ``check`` names the failed invariant (e.g. ``"hermitian"``).
    """

    def __init__(self, message, check):
        super().__init__(message)
        self.check = str(check)


class CacheKeyMismatchError(HomodyneShadowsError):
    """A POVM parameter file is malformed, its fields disagree, or it holds another POVM.

    Scheme and cache files are both parameter files.  Fields disagree when,
    for example, the stored content hash or ``M`` does not match the edges.
    "Another POVM" is one whose cutoff, phase count or binning differs from
    the one the command-line flags describe.
    """


class UnsupportedConfigurationError(HomodyneShadowsError):
    """The requested configuration is outside the supported envelope."""
