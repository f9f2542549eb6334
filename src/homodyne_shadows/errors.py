"""Exception types shared across the package.

Every failure mode that a caller might want to catch programmatically gets
its own class here; generic precondition violations (bad parameter ranges,
mismatched dimensions) raise plain ``ValueError``.
"""


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
