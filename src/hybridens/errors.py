"""Error taxonomy shared by the library and the CLI.

The CLI maps these onto process exit codes (config 2, data 3, numeric 4),
and an OSError or the RuntimeError of a failed stage onto exit code 5.
"""


class ConfigError(ValueError):
    """A run configuration value is missing, out of range, or inconsistent."""


class DataError(ValueError):
    """An input file or dataset violates its documented layout or ranges."""


class NumericError(RuntimeError):
    """An optimization or training step produced a non-finite quantity."""
