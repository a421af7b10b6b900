"""The distance kinds, shared by the dense metrics and the Bell-diagonal measures."""

import enum

from .errors import OutOfRange


class DistanceKind(enum.Enum):
    """The five distance functionals, keyed by their CLI codes."""

    HS = "hs"
    HELLINGER = "he"
    BURES = "bu"
    TRACE = "tr"
    RELATIVE_ENTROPY = "re"


def known_kind(kind) -> DistanceKind:
    """kind itself; OutOfRange naming it unless it is a DistanceKind."""
    if not isinstance(kind, DistanceKind):
        raise OutOfRange(f"unknown distance kind {kind!r}")
    return kind
