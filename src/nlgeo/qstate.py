"""Float parametrizations of two-qubit and two-qudit states.

A Bell-diagonal two-qubit state is given by its three diagonal correlators a
or its four Bell weights e, as tuples of Python floats; the Werner and
isotropic families by their parameters. These are what the measures and the
solver work on, so this module needs no matrix library.

The dense forms (density matrices, the Pauli coefficient matrix, the family
constructors and the symmetrizing maps) live in nlgeo.dense, the numpy layer.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import repeat
from sys import float_info

from .errors import DimensionMismatch, InvalidProbability, NonPhysical, OutOfRange

PROB_NEG_ATOL = 1e-12
PROB_SUM_ATOL = 1e-9
_REAL = repeat((float, int))  # items float_vector takes unchecked, for isinstance

# Correlator directions of the four extremal Bell points; row k is the vertex
# with e_{k+1} = 1. Row 3 is the singlet direction (-1, -1, -1).
BELL_CORNERS = (
    (1.0, 1.0, -1.0),
    (1.0, -1.0, 1.0),
    (-1.0, 1.0, 1.0),
    (-1.0, -1.0, -1.0),
)


def _shown(x, show=str) -> str:
    """show(x) for an error message. An int past CPython's limit on the digits
    str writes (sys.set_int_max_str_digits) is named by its size, and
    anything holding one by its type, where show would raise ValueError."""
    try:
        return show(x)
    except ValueError:
        if isinstance(x, int):
            return f"{'a negative' if x < 0 else 'an'} int of {x.bit_length()} bits"
        return f"a {type(x).__name__} holding an int too long to write"


def float_vector(v, n: int, name: str) -> tuple:
    """v as a tuple of n floats; DimensionMismatch unless it holds n real numbers,
    which no str or bytes, text item or complex item (numpy's too) is: float would
    read its digits or drop its imaginary part. An item that no float can hold,
    such as 10**400, raises DimensionMismatch naming it. Each public entry
    converts here once; the private helpers below do not."""
    try:
        # tolist gives a numpy array's items as Python numbers, faster than iterating
        items = None if isinstance(v, (str, bytes)) else tuple(v.tolist() if hasattr(v, "tolist") else v)
    except TypeError:
        items = None
    if items is None or len(items) != n:
        raise DimensionMismatch(f"{name} vector must have length {n}, got {_shown(v, repr)}")
    if all(map(isinstance, items, _REAL)) or not any(
        isinstance(x, (str, bytes, bytearray, complex)) or getattr(getattr(x, "dtype", None), "kind", "") == "c"
        for x in items
    ):
        try:
            return tuple(map(float, items))
        except TypeError:  # an item such as None
            pass
        except OverflowError:  # an int or fraction beyond the largest float
            big = next(x for x in items if float_info.max < abs(x) < math.inf)
            raise DimensionMismatch(f"{name} vector item {_shown(big, repr)} is too large for a float") from None
    raise DimensionMismatch(f"{name} vector must hold {n} real numbers, got {_shown(v, repr)}")


def _float(x, name: str) -> float:
    """float(x) of a parameter x; OutOfRange naming x when no float can hold
    it (10**400), as no admissible range reaches it."""
    try:
        return float(x)
    except OverflowError:
        raise OutOfRange(f"{name} {_shown(x)} is too large for a float") from None


def _correlators(e) -> tuple[float, float, float]:
    """Correlators a_i = sum_k BELL_CORNERS[k][i] e_k of weight floats e, summed
    as (k = 0, 2) + (k = 1, 3): numpy's order for the matrix product, bit for bit."""
    e0, e1, e2, e3 = e
    return ((e0 - e2) + (e1 - e3), (e0 + e2) - (e1 + e3), (e2 - e0) + (e1 - e3))


def _weights(a) -> tuple[float, float, float, float]:
    """Bell weights e_k = (1 + BELL_CORNERS[k] . a) / 4 of correlator floats
    a: the terms of (1, a1, a2, a3), summed in the order _correlators uses."""
    a1, a2, a3 = a
    q1, q2, q3 = 0.25 * a1, 0.25 * a2, 0.25 * a3
    return ((0.25 + q2) + (q1 - q3), (0.25 - q2) + (q1 + q3), (0.25 + q2) + (q3 - q1), (0.25 - q2) - (q1 + q3))


def _probabilities(e) -> tuple[float, float, float, float]:
    """Weight floats e, or InvalidProbability (written so that nan fails)."""
    e0, e1, e2, e3 = e
    if not (e0 >= -PROB_NEG_ATOL and e1 >= -PROB_NEG_ATOL and e2 >= -PROB_NEG_ATOL and e3 >= -PROB_NEG_ATOL):
        raise InvalidProbability(f"negative or nan weight in {list(e)}")
    if not abs(sum(e) - 1.0) <= PROB_SUM_ATOL:
        raise InvalidProbability(f"weights {list(e)} sum to {sum(e)}, not 1")
    return e


def _physical(a) -> tuple[float, float, float, float]:
    """Weights of correlator floats a, the one physicality check (nan fails too)."""
    e = e0, e1, e2, e3 = _weights(a)
    if not (e0 >= -PROB_NEG_ATOL and e1 >= -PROB_NEG_ATOL and e2 >= -PROB_NEG_ATOL and e3 >= -PROB_NEG_ATOL):
        raise NonPhysical(f"correlators {list(a)} lie outside the physical tetrahedron")
    return e


def bd_probs_to_corr(e) -> tuple[float, float, float]:
    """Map Bell weights e to correlators a. Raises InvalidProbability on bad e."""
    return _correlators(_probabilities(float_vector(e, 4, "probability")))


def bd_corr_to_probs(a) -> tuple[float, float, float, float]:
    """Map correlators a to Bell weights e_k = (1 + BELL_CORNERS[k] . a) / 4.

    Returns the affine image even when some e_k < 0, so that callers can test
    physicality themselves. Raises DimensionMismatch unless a holds 3
    correlators.
    """
    return _weights(float_vector(a, 3, "correlator"))


def physical_probs(a) -> tuple[float, float, float, float]:
    """Bell weights of correlators a, through the one physicality check: NonPhysical
    unless each is >= -PROB_NEG_ATOL, DimensionMismatch unless a holds 3."""
    return _physical(float_vector(a, 3, "correlator"))


class _Checked:
    """Base of a record whose __new__ checks or converts its fields: _make, and
    with it _replace, goes through __new__ too."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))


class BellDiagonal(_Checked, namedtuple("BellDiagonal", "a e")):
    """Bell-diagonal state given by correlators a (3) and Bell weights e (4),
    each a tuple of floats. Every public way to build one checks it, so a
    BellDiagonal is a checked state: the constructor, _make and _replace
    check a as from_corr does and e as from_probs does, and raise
    NonPhysical unless the correlators of e are a, within PROB_SUM_ATOL."""

    __slots__ = ()

    def __new__(cls, a, e):
        a, state = cls.from_corr(a).a, cls.from_probs(e)
        if not all(abs(x - y) <= PROB_SUM_ATOL for x, y in zip(a, state.a)):
            raise NonPhysical(f"correlators {list(a)} and weights {list(state.e)} are two different states")
        return cls._of(a, state.e)

    @classmethod
    def _of(cls, a, e) -> "BellDiagonal":
        """The state of float tuples a and e that nlgeo made itself, taken as
        they are."""
        return tuple.__new__(cls, (a, e))

    @classmethod
    def from_corr(cls, a) -> "BellDiagonal":
        """The state of correlators a, the one input check of
        locality.bd_is_chsh_local and of every measure: a is converted to
        floats once, which are weighed and checked once (_physical), so it
        raises DimensionMismatch unless a holds 3 numbers and NonPhysical
        outside the tetrahedron. The state keeps those floats and weights."""
        a = float_vector(a, 3, "correlator")
        return cls._of(a, _physical(a))

    @classmethod
    def from_probs(cls, e) -> "BellDiagonal":
        # e passes with a sum within PROB_SUM_ATOL of 1, which can put a outside
        e = _probabilities(float_vector(e, 4, "probability"))
        a = _correlators(e)
        _physical(a)
        return cls._of(a, e)


class WernerParam(_Checked, namedtuple("WernerParam", "w")):
    """Werner family parameter w, admissible on [-1/3, 1]: the weight of the
    d = 2 isotropic state, with the same rounding slack as IsotropicParam."""

    __slots__ = ()

    def __new__(cls, w):
        if not (-1.0 / 3.0 - 1e-12 <= w <= 1.0 + 1e-12):
            raise OutOfRange(f"Werner parameter {_shown(w)} outside [-1/3, 1]")
        return super().__new__(cls, w)


def whole_number(n, low: int, name: str) -> int:
    """n as an int; OutOfRange naming it unless it is a whole number >= low
    (nan, inf and bools are not)."""
    # n % 1 rather than float(n): an int too large for a float is whole
    if isinstance(n, bool) or not (n >= low and n % 1 == 0):
        raise OutOfRange(f"{name} must be an integer >= {low}, got {_shown(n)}")
    return int(n)


class IsotropicParam(_Checked, namedtuple("IsotropicParam", "d omega")):
    """Isotropic family parameter: local dimension d, an int, and mixing weight omega."""

    __slots__ = ()

    def __new__(cls, d, omega):
        d = whole_number(d, 2, "local dimension")
        try:
            lo = -1.0 / (d * d - 1.0)
        except OverflowError:
            raise OutOfRange(f"local dimension {_shown(d)}: its square is too large for a float") from None
        if not (lo - 1e-12 <= omega <= 1.0 + 1e-12):
            raise OutOfRange(f"omega {_shown(omega)} outside [{lo}, 1] for d={d}")
        return super().__new__(cls, d, omega)
