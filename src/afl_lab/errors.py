"""Exception hierarchy and the immutable record base shared by all afl_lab
modules.

Record is the base of every value type in the package (field elements,
matrices, polynomials, instances, reports) and the one place that defines
their value protocol.  A subclass names its fields once, as
__slots__ = _fields = (...), at least two of them, and gets positional or
keyword construction (trailing defaults in _defaults), equality only against
its own class, hashing, repr, pickling and deepcopy, all on the tuple of
field values; assigning to or deleting a field raises AttributeError.
Matrix and Poly, built in every kernel, write their slots from _setters in an
__init__ of their own.  FieldElem interns the elements of a small field in
__new__, its only constructor, and adds two slots that are not fields.  A
derived slot (hermitian.AdaptedBasis.prefixes, forge.MinusculeInstance.fact)
is not a field either: an __init__ that runs Record.__init__ first sets it,
equality, hash, repr and pickle leave it out, and a pickle or deepcopy,
which constructs from the fields, derives it again.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        # the slot setters of the fields, so __init__ need not look up names,
        # and the getter of the tuple of field values (a tuple because every
        # Record names at least two fields: attrgetter of one returns it bare)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for setter, value in zip(self._setters, args):
            setter(self, value)

    def _bind(self, args, kwargs):
        values = dict(self._defaults, **dict(zip(self._fields, args)), **kwargs)
        if len(args) > len(self._fields) or sorted(values) != sorted(self._fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(self._fields)}")
        return [values[name] for name in self._fields]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if self is other:  # interned field elements
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)


class VerifierError(Exception):
    """Base class for all errors raised by this package."""


class InputError(VerifierError):
    """Bad arguments or violated preconditions."""


class InvariantError(VerifierError):
    """A certification check failed; the message names the broken axiom."""


class ForgeError(VerifierError):
    """Instance construction exhausted its retry budget."""


class CrossCheckError(VerifierError):
    """Two independent computations of the same quantity disagreed, or the
    arithmetic failed a check of its own (a division, norm or scan).

    This never indicates bad input: it flags a bug in the code or in the
    formulas it implements, so callers must not swallow it.
    """
