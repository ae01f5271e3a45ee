"""Exception taxonomy shared by every layer of the engine.

Numerical failures (degenerate Gram rows, singular update denominators)
are distinguished from contract failures (unknown task, bad weight) and
from transport/persistence failures so that callers can react per class.
"""


class EngineError(Exception):
    """Base class for every error raised by this package."""


# --- numerical -----------------------------------------------------------

class DegenerateGram(EngineError):
    """New input is numerically dependent on the stored ones (pivot ~ 0)."""


class SingularUpdate(EngineError):
    """A rank-one inverse update has a vanishing denominator."""


class SingularSystem(EngineError):
    """A dense solve failed (singular or non-finite system)."""


# --- data contract -------------------------------------------------------

class NonPositiveWeight(EngineError):
    """Observation weights must be strictly positive."""


class UnknownTask(EngineError):
    """Task id has no data on this server / in this model."""


class UnknownKey(EngineError):
    """Lookup-table kernel got an input key outside its table."""


class MissingFeatures(EngineError):
    """Feature-based kernel got an input without a feature vector."""


class InvalidInput(EngineError):
    """A new input's features are not finite, or not as long as the
    pool's, or an observation's response is not finite."""


# --- wire / persistence --------------------------------------------------

class ProtocolError(EngineError):
    """Base class for wire-format and snapshot failures."""


class MalformedFrame(ProtocolError):
    """Frame bytes do not parse as a known message."""


class UnsupportedVersion(ProtocolError):
    """Frame or snapshot written by an incompatible format version."""


class ChecksumMismatch(ProtocolError):
    """Snapshot payload does not match its trailing CRC."""


class Unauthorized(ProtocolError):
    """Request token does not authenticate the named task."""
