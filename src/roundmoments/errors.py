"""Exception types shared across the package.

Every failure is a ``ConfigError``, a malformed configuration (CLI exit
code 2), or a ``PreconditionError``, a violated theorem hypothesis (exit
code 3).  The one other error, a checked sweep's dominance violation, is
``verify.BoundViolationError`` (exit code 1).
"""


class RoundMomentsError(Exception):
    pass


class ConfigError(RoundMomentsError):
    pass


class PreconditionError(RoundMomentsError):
    pass
