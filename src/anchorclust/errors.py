"""Exception and warning types shared across the package."""


class AnchorClustError(Exception):
    """Base class for every error raised by this library."""


class MissingFile(AnchorClustError):
    """A file declared in dataset metadata does not exist."""


class ShapeMismatch(AnchorClustError):
    """Matrix dimensions disagree with metadata or with sibling views."""


class NonFiniteValue(AnchorClustError):
    """A matrix or labels entry is NaN, infinite, or not parseable as a number."""


class MalformedMeta(AnchorClustError):
    """meta.json is missing, unparseable, or violates the schema."""


class MalformedConfig(AnchorClustError):
    """A run-configuration file or flag set is invalid."""


class IoError(AnchorClustError):
    """Writing dataset or result files failed."""


class InvalidParameter(AnchorClustError):
    """An argument violates a documented precondition."""


class LengthMismatch(AnchorClustError):
    """Two label vectors have different lengths."""


class AllZeroGraph(AnchorClustError):
    """Every column of the anchor graph sums to zero."""


class NumericalBreakdown(AnchorClustError):
    """The objective became non-finite; the configuration is unusable."""


class DegenerateViewWarning(UserWarning):
    """A view has fewer distinct rows than the requested anchor count."""


class DegenerateRowWarning(UserWarning):
    """All k+1 nearest anchors of some sample are equidistant."""


class RankDeficientWarning(UserWarning):
    """The basis subproblem is rank deficient; the solution is non-unique."""


class QpNotConvergedWarning(UserWarning):
    """No longer raised: the view-weight step is an exact active-set solve.
    The class stays only so that perfbench's traced
    solver.qp_not_converged_warnings keeps reporting 0; it can go once
    the benchmark drops that metric."""
