"""Exception hierarchy shared across the package.

Each category maps to a CLI exit code so batch callers can react to
failures without parsing free text.
"""

# The most bytes a config value may make a stage hold (a network with its
# training state, a synthetic scene): a value that needs more is a
# ConfigError naming its key, raised before anything is allocated.
BYTE_LIMIT = 2 ** 31


class MslidarError(Exception):
    """Base class for all package errors."""

    category = "internal"
    exit_code = 1


class ConfigError(MslidarError):
    """Invalid configuration: unknown keys, bad values, unusable combinations."""

    category = "config"
    exit_code = 2


class DataError(MslidarError):
    """Invalid or inconsistent input data: malformed files, missing columns,
    mismatched lengths, empty selections."""

    category = "data"
    exit_code = 3


class NumericError(MslidarError):
    """Numeric failure at runtime: NaN loss, degenerate geometry."""

    category = "numeric"
    exit_code = 4
