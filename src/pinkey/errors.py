"""Exception types shared across the library."""


class KeyAgreementError(Exception):
    """Base class for all library-specific errors."""


class InsufficientKeyMaterial(KeyAgreementError):
    """A pairwise key store was asked for more bits than it has left."""


class InstanceTooLarge(KeyAgreementError):
    """An exhaustive oracle was invoked beyond its hard instance-size guard."""


class GraphDisconnected(KeyAgreementError):
    """An operation that needs a connected graph was given a disconnected one."""


class NotAStar(KeyAgreementError):
    """A broadcast-case operation was given a network that is not a star."""


class UnknownBasisLabel(KeyAgreementError):
    """A linear form references a label absent from the source-bit basis."""


class ParseError(KeyAgreementError):
    """A scenario or transcript file is malformed, or cannot be read or written."""


class ValidationError(KeyAgreementError):
    """A parsed scenario is semantically invalid (bad field, bad range)."""


class InvariantViolation(KeyAgreementError):
    """A run broke a protocol invariant the constructions guarantee (a bug)."""


def invariant(holds: bool, message: str) -> None:
    """Raise InvariantViolation unless ``holds``; unlike assert, survives python -O."""
    if not holds:
        raise InvariantViolation(message)
