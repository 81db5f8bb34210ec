"""Exception hierarchy for the reproduction library.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors such as
``TypeError``.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An experiment or cluster configuration is invalid.

    Raised eagerly at construction time (e.g. ``n != 2t+1`` for XPaxos,
    a latency matrix with missing entries, or a workload with zero clients)
    so that misconfiguration never surfaces as a mysterious mid-run failure.
    """


class ProtocolViolation(ReproError):
    """A replica observed a message that does not conform to the protocol.

    In XPaxos this triggers view-change initiation (Section 4.3.2, case (i));
    in the test suite it is also used to assert that faulty behaviour is
    noticed by correct replicas.
    """


class SimulationError(ReproError):
    """The discrete-event simulator was driven incorrectly.

    Examples: scheduling an event in the past, or running a simulator that
    was already exhausted with ``strict=True``.
    """
