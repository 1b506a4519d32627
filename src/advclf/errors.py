"""Exception types shared across the package.

ConfigError marks bad settings or shapes (a caller bug), DataError marks
problems with input files or datasets, TrainingError marks numeric failures
during optimization. The CLI maps ConfigError to exit code 2 and the rest to
exit code 1.
"""


class ConfigError(ValueError):
    pass


class DataError(Exception):
    pass


class TrainingError(RuntimeError):
    pass
