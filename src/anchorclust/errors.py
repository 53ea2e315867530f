"""Exception and warning types shared across the package.

Every error sits under exactly one of three categories, ConfigError,
DataError and NumericalBreakdown, whose exit_status is the command-line
exit status and whose label, formatted with the error's class name,
starts its stderr line. io_errors turns each OSError into MissingFile or
IoError.
"""

from contextlib import contextmanager


class AnchorClustError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(AnchorClustError):
    """A run setting or an argument is invalid."""

    exit_status = 2
    label = "config error [{}]"


class DataError(AnchorClustError):
    """An input or output file is missing, unreadable, unwritable or unusable."""

    exit_status = 3
    label = "data error [{}]"


class MissingFile(DataError):
    """A file to read, or the directory of one to write, does not exist."""


class ShapeMismatch(DataError):
    """Matrix dimensions disagree with metadata or with sibling views."""


class NonFiniteValue(DataError):
    """A matrix or labels entry is NaN, infinite, or not parseable as a number."""


class MalformedMeta(DataError):
    """meta.json or anchor_key.json is unparseable or violates its schema."""


class MalformedConfig(ConfigError):
    """A run-configuration file or flag set is invalid."""


class IoError(DataError):
    """Reading or writing a dataset, cache or result file failed."""


class InvalidParameter(ConfigError):
    """An argument violates a documented precondition."""


class LengthMismatch(DataError):
    """Two label vectors have different lengths."""


class AllZeroGraph(DataError):
    """Every column of the anchor graph sums to zero."""


class NumericalBreakdown(AnchorClustError):
    """A fit cycle broke down numerically; the configuration is unusable."""

    exit_status = 4
    label = "numerical breakdown"


@contextmanager
def io_errors(what: str):
    """Raise an OSError inside the block as MissingFile("<what>: <error>")
    if it is a FileNotFoundError, else as IoError("<what>: <error>")."""
    try:
        yield
    except FileNotFoundError as exc:
        raise MissingFile(f"{what}: {exc}") from None
    except OSError as exc:
        raise IoError(f"{what}: {exc}") from None


class DegenerateViewWarning(UserWarning):
    """A view has fewer distinct rows than the requested anchor count."""


class DegenerateRowWarning(UserWarning):
    """All k+1 nearest anchors of some sample are equidistant."""


class RankDeficientWarning(UserWarning):
    """The basis step has no unique solution: Z^T F is rank deficient and
    even the completion nearest the previous basis is not unique."""


class QpNotConvergedWarning(UserWarning):
    """Never raised. perfbench reports solver.qp_not_converged_warnings only
    while this class exists; it goes when the benchmark drops that metric."""
