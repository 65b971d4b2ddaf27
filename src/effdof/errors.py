"""Exception types shared across the package, and the field checks that raise them.

A library call fails in one of three ways, each with one type: a bad argument
raises ``ValueError``, or :class:`FieldError` when one entry is at fault; input
on which the quantity is undefined raises :class:`DegenerateComponents`; and a
result beyond the float range raises an ``ArithmeticError``.

:func:`check_real`, :func:`check_reals` and :func:`check_int` are the one
place where a numeric input field is validated, so a field is accepted or
rejected the same way wherever it enters. A rejected value raises
:class:`FieldError`, which carries the field and the entry's index, so a caller
such as the CLI can report the position in its own terms (a line and a column).

:func:`check_reals` is the one sequence check. A sequence of ``int`` and
``float`` entries (float subclasses such as numpy's ``float64`` included) that
passes takes a bulk path of C-level loops (a count of float entries, then the
type set and the conversion only when some entry is not a float, a finite sum,
the minimum); anything else, and every sequence holding a bad entry, goes
through :func:`check_real` entry by entry, which alone builds the
:class:`FieldError` for a bad entry. Both paths accept and return the same
values.

:class:`_Record` is the immutable base of the value classes the estimators
take and return.
"""

import math
import numbers
from collections.abc import Iterable
from itertools import count, repeat

__all__ = ["DegenerateComponents"]


class DegenerateComponents(ValueError):
    """The quantity asked for is undefined on this input: no component has both
    a positive weight and a positive variance, every weight is zero, or the
    jackknife pseudo-values are all identical."""


class FieldError(ValueError):
    """A numeric input field holds a bad value: ``field`` names it, ``index`` is
    the entry's 0-based position in its sequence (None for a scalar field) and
    ``reason`` the bare message, e.g. ``dof must be > 0, got 0.0``. For an entry
    the message is ``f"{label} {index}: {reason}"``, e.g. ``component 3: ...``."""

    def __init__(self, field: str, reason: str, index: int | None = None,
                 label: str = "index"):
        self.field = field
        self.index = index
        self.reason = reason
        super().__init__(reason if index is None else f"{label} {index}: {reason}")


class _DataclassFields:
    """The ``__dataclass_fields__`` of a :class:`_Record` subclass, made on first
    use, so :func:`dataclasses.fields`, :func:`~dataclasses.asdict` and
    :func:`~dataclasses.replace` accept records while importing the package
    leaves :mod:`dataclasses` (and the ``inspect`` it loads) unloaded."""

    def __init__(self):
        self.by_class = {}

    def __get__(self, obj, cls):
        fields = self.by_class.get(cls)
        if fields is None:
            import dataclasses

            fields = dataclasses.make_dataclass(cls.__name__, cls._fields).__dataclass_fields__
            self.by_class[cls] = fields
        return fields


class _Record:
    """Immutable record whose fields are the subclass's public ``__slots__``, in order.

    A subclass's ``__init__`` checks its arguments and passes the final values
    to :meth:`_freeze`, which sets each slot once, in ``__slots__`` order.
    Equality, hashing, the repr and pattern matching follow the fields as for a
    frozen dataclass; assignment and deletion raise :class:`AttributeError`,
    and copies and pickles are rebuilt through the constructor.

    A slot whose name starts with ``_`` is not a field: it holds private state
    derived from the fields (such as :class:`~effdof.estimators.ComponentSet`'s
    ratio sums), set in ``__init__`` and never compared, hashed, printed or
    pickled.
    """

    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(
            name for name in cls.__slots__ if not name.startswith("_"))

    def _freeze(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


def check_real(name: str, x, low: float | None = None, strict: bool = False,
               index: int | None = None, label: str = "index") -> float:
    """``x`` as a float, or a :class:`FieldError` for field ``name`` (at ``index``).

    ``x`` must be a finite real number (any ``numbers.Real`` except ``bool``;
    strings are refused, not parsed) and, when ``low`` is given, ``>= low``
    (``> low`` if ``strict``).
    """
    if type(x) is not float:
        # the exact-type test spares a plain int the numbers ABC check
        if type(x) is not int and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
            raise FieldError(name, f"{name} must be a real number, got {x!r}", index, label)
        try:
            x = float(x)
        except OverflowError:
            # the value's repr may run to hundreds of digits, so name its type only
            kind = "an int" if isinstance(x, int) else f"a {type(x).__name__}"
            raise FieldError(name, f"{name} must be finite, got {kind} too large for a float",
                             index, label) from None
    if not math.isfinite(x):
        raise FieldError(name, f"{name} must be finite, got {x!r}", index, label)
    if low is not None and (x < low or (strict and x == low)):
        raise FieldError(name, f"{name} must be {'>' if strict else '>='} {low:g}, "
                         f"got {x!r}", index, label)
    return x


def _plain_floats(xs: tuple, low: float | None, strict: bool) -> tuple[float, ...] | None:
    """``xs`` as floats if every entry is an ``int`` or a ``float`` (a float
    subclass, such as numpy's ``float64``, included) that :func:`check_real`
    would accept, else None; C-level loops throughout."""
    # counting one type is cheaper than building the set of types, and the
    # usual all-float sequence needs nothing more
    if list(map(type, xs)).count(float) != len(xs):
        # int subclasses, bool among them, go entry by entry
        if not all(t is int or issubclass(t, float) for t in set(map(type, xs))):
            return None
        try:
            xs = tuple(map(float, xs))
        except Exception:
            # an int too large for a float, or a float subclass whose __float__
            # fails: the per-entry path raises for the first bad entry
            return None
    # a nan or inf entry makes the sum non-finite; so may an overflow of finite
    # entries, which then simply take the per-entry path
    if not math.isfinite(sum(xs)):
        return None
    if low is not None and xs:
        least = min(xs)
        if least < low or (strict and least == low):
            return None
    return xs


def check_reals(name: str, xs: Iterable, low: float | None = None, *,
                strict: bool = False, label: str = "index") -> tuple[float, ...]:
    """Every entry of ``xs`` as :func:`check_real` checks it, as a tuple of floats.

    ``xs`` is read once, into a tuple. A sequence of floats and ints that
    passes is checked and converted in bulk; any other sequence, and any
    sequence with a bad entry, goes through :func:`check_real` entry by entry,
    so the first bad entry raises the same :class:`FieldError` either way.
    """
    xs = tuple(xs)
    ys = _plain_floats(xs, low, strict)
    if ys is not None:
        return ys
    # map with positional arguments costs less per entry than a generator
    return tuple(map(check_real, repeat(name), xs, repeat(low), repeat(strict), count(),
                     repeat(label)))


def check_int(name: str, x, low: int) -> int:
    """``x`` as an int, or a :class:`FieldError` for the scalar field ``name``.

    ``x`` must be an integer ``>= low``: any ``numbers.Integral`` (numpy
    integers included) except ``bool``, small enough to convert to a float.
    """
    if (type(x) is not int and (isinstance(x, bool) or not isinstance(x, numbers.Integral))
            or x < low):
        raise FieldError(name, f"{name} must be an integer >= {low}, got {x!r}")
    x = int(x)
    check_real(name, x)  # refuses an int too large for a float
    return x
