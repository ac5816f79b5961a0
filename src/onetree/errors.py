"""Exception types shared across the package."""


class OneTreeError(Exception):
    """Base class for every error this package raises deliberately."""


class ParseError(OneTreeError):
    """Instance file could not be parsed; messages carry the line number."""


class InstanceError(OneTreeError):
    """Instance violates a validation rule (lengths, demands, connectivity)."""


class InvalidTreeError(OneTreeError):
    """An edge set does not form a usable routing tree."""


class DisconnectedError(OneTreeError):
    """Operation requires a connected graph."""


class OracleLimitError(OneTreeError):
    """The exact oracle refused an instance above ``ssrob.ORACLE_CELL_BUDGET``."""


class ConfigError(OneTreeError):
    """Invalid parameter combination or run configuration."""


class InvariantError(OneTreeError):
    """A property that must hold by construction was violated (a bug)."""
