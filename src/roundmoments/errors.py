"""Exception types shared across the package.

Every failure is a ``ConfigError``, a malformed configuration (CLI exit
code 2), or a ``PreconditionError``, a violated theorem hypothesis (exit
code 3).  A bound that its oracle beats is no exception: the command line
judges the results of ``verify``, ``sweep`` and ``sum-demo`` and exits 1.
"""


class RoundMomentsError(Exception):
    pass


class ConfigError(RoundMomentsError):
    pass


class PreconditionError(RoundMomentsError):
    pass
