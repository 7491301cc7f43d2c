"""Error taxonomy shared by the library and the CLI.

The CLI maps these onto process exit codes (config 2, data 3, numeric 4,
stopped 143), and an OSError or the RuntimeError of a failed stage onto 5.
"""

from contextlib import contextmanager


class ConfigError(ValueError):
    """A run configuration value is missing, out of range, or inconsistent."""


class DataError(ValueError):
    """An input file or dataset violates its documented layout or ranges."""


class NumericError(RuntimeError):
    """An optimization or training step produced a non-finite quantity."""


class Stopped(BaseException):
    """SIGTERM arrived while a process pool ran.  Like KeyboardInterrupt it is
    no Exception, so no error context rewords it."""


@contextmanager
def error_context(prefix: str):
    """Prefix the message of any error raised inside: a taxonomy error keeps
    its type, and any other error becomes a RuntimeError."""
    try:
        yield
    except (ConfigError, DataError, NumericError) as exc:
        raise type(exc)(f"{prefix}: {exc}") from exc
    except Exception as exc:
        raise RuntimeError(f"{prefix}: {exc}") from exc
