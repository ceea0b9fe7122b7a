"""Exception hierarchy shared across the toolkit.

Every error that a caller may want to branch on has its own class; the CLI
maps them onto distinct exit codes (parameter refusals vs. verification
failures vs. I/O problems).
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(ToolkitError, ValueError):
    """A construction precondition is violated.

    The message names the violated inequality or constraint.
    """


class InsufficientRankError(ToolkitError):
    """The supplied symbols do not span enough of the message space.

    Raised by decoders when an erasure pattern is uncorrectable; distinct
    from :class:`InconsistentDataError`, which signals corruption.
    """


class InconsistentDataError(ToolkitError):
    """Surplus symbols contradict the decoded message (corrupt data)."""


class RepairError(ToolkitError):
    """No repair path can restore the failed node."""


class DesignError(ToolkitError):
    """A block design or its usage fails verification.

    Carries a witness (the offending point subset) where applicable.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PatternCapError(ToolkitError):
    """``verify --mode repair-all`` would try more decode-path helper
    subsets of one node than :data:`lmbr.cli.REPAIR_ALL_CAP`.

    This is a refusal, not a failure: no sampling is substituted.
    """


class ShardFormatError(ToolkitError):
    """A shard file is malformed or truncated."""


class ConfigMismatchError(ToolkitError):
    """A shard's config digest does not match the active configuration."""
