"""The distance kinds, shared by the dense metrics and the Bell-diagonal measures."""

import enum


class DistanceKind(enum.Enum):
    """The five distance functionals, keyed by their CLI codes."""

    HS = "hs"
    HELLINGER = "he"
    BURES = "bu"
    TRACE = "tr"
    RELATIVE_ENTROPY = "re"
