"""The value types of afl_lab, gf.FieldElem included, are immutable
errors.Record subclasses: constructed by position or keyword with their
defaults, equal and hashed by their fields but never equal to another class
with the same fields, printed as Name(field=value, ...), and carried through
pickle (the --jobs pool) and deepcopy.  None of them is a tuple, so a matrix
does not concatenate and a polynomial has no length."""

import copy
import functools
import pickle

import pytest

from afl_lab import gf
from afl_lab.cli import DEFAULT_SIGNATURES, SweepConfig
from afl_lab.dl import EigenlineRecord, dl_fixed_points
from afl_lab.engine import (
    Check,
    GeometricResult,
    StratumRecord,
    VerificationReport,
    afl_verdict,
    geometric_count,
)
from afl_lab.errors import Record
from afl_lab.forge import BlockSpec, MinusculeInstance, instance_from_spec, parse_signature, random_coxeter_instance
from afl_lab.hermitian import AdaptedBasis, adapted_basis
from afl_lab.linalg import Lattice, Matrix, charpoly, invariant_subspaces
from afl_lab.poly import FactoredPoly, Poly

# each class with its fields in constructor order; a record holding a dict
# is unhashable, as a frozen dataclass holding one was
FIELDS = {
    gf.FieldElem: ("p", "level", "coeffs"),
    Matrix: ("p", "level", "rows"),
    Poly: ("p", "level", "coeffs"),
    FactoredPoly: ("factors", "pairing"),
    Lattice: ("rows", "chains"),
    AdaptedBasis: ("rows", "gram", "g", "chains"),
    BlockSpec: ("kind", "degree", "exponent"),
    MinusculeInstance: ("space", "g", "tau", "seed", "signature"),
    StratumRecord: ("exponents", "dim_w", "type", "quotient_charpoly", "fixed_count", "multiplicity", "dl_count"),
    GeometricResult: ("strata", "total", "nonempty"),
    Check: ("name", "ok", "detail"),
    VerificationReport: ("instance", "analytic", "geometric", "support", "closed_card", "closed_deriv", "counts",
                         "alt_sum", "orbital", "checks", "notes"),
    EigenlineRecord: ("eigenvalue", "vector"),
    SweepConfig: ("qs", "max_dim", "count", "seed", "signatures", "jobs", "out", "cross_check"),
}
UNHASHABLE = {VerificationReport}


@functools.lru_cache(maxsize=None)
def samples():
    """One object of each class, from a finite-support n = 3 instance."""
    inst = instance_from_spec("cp:1:1,sp:1:1", 3, 0)
    lattice = invariant_subspaces(inst.g, inst.fact.factors)
    coxeter = random_coxeter_instance(3, 3, 0)
    report = afl_verdict(inst)
    return {
        gf.FieldElem: gf.gen(3, 2),
        Matrix: inst.g,
        Poly: charpoly(inst.g),
        FactoredPoly: inst.fact,
        Lattice: lattice,
        AdaptedBasis: adapted_basis(lattice, inst.space, inst.g),
        BlockSpec: BlockSpec("sp", 1, 1),
        MinusculeInstance: inst,
        StratumRecord: next(r for r in geometric_count(inst).strata if r.dl_count is not None),
        GeometricResult: geometric_count(inst),
        Check: report.checks[0],
        VerificationReport: report,
        EigenlineRecord: dl_fixed_points(coxeter.space, coxeter.g)[0],
        SweepConfig: SweepConfig((3, 5), 9, 200, 20240, DEFAULT_SIGNATURES, 2, None, False),
    }


def values(obj):
    return [getattr(obj, name) for name in FIELDS[type(obj)]]


CLASSES = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)


@CLASSES
def test_every_value_type_is_a_record(cls):
    assert issubclass(cls, Record) and cls._fields == FIELDS[cls]


@CLASSES
def test_construction_by_position_and_keyword_is_equal(cls):
    obj = samples()[cls]
    twin = cls(*values(obj))
    assert twin is not obj or cls is gf.FieldElem  # a tabled element has one instance
    assert twin == obj and cls(**dict(zip(FIELDS[cls], values(obj)))) == obj
    assert not obj != twin
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(twin) == hash(obj) == hash(tuple(values(obj)))


@CLASSES
def test_never_equal_to_another_class_with_the_same_fields(cls):
    obj = samples()[cls]
    other = type("Other", (Record,), {"__slots__": FIELDS[cls], "_fields": FIELDS[cls]})(*values(obj))
    assert obj != other and other != obj
    assert obj != tuple(values(obj)) and obj != values(obj)


@CLASSES
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    obj = samples()[cls]
    for name in FIELDS[cls]:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before
    with pytest.raises(AttributeError):
        obj.extra = 1


@CLASSES
def test_repr_names_every_field(cls):
    obj = samples()[cls]
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(FIELDS[cls], values(obj)))
    assert repr(obj) == f"{cls.__name__}({fields})"


@CLASSES
def test_pickle_and_deepcopy_round_trip(cls):
    obj = samples()[cls]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(obj, protocol))
        assert type(back) is cls and back == obj
    for back in (copy.deepcopy(obj), copy.copy(obj)):
        assert type(back) is cls and back == obj
    if cls is AdaptedBasis:
        assert back.prefixes == obj.prefixes  # derived, so rebuilt


def test_fixed_reprs():
    assert repr(Check("a", True, "x")) == "Check(name='a', ok=True, detail='x')"
    assert repr(gf.elem(3, 2, (1, 2))) == "FieldElem(p=3, level=2, coeffs=(1, 2))"
    assert repr(Poly.one(3, 2)) == "Poly(p=3, level=2, coeffs=(FieldElem(p=3, level=2, coeffs=(1, 0)),))"


def test_defaults_and_bad_arguments():
    cfg = SweepConfig((3,), 5, 6, 0, ("sp:1:1",), 1, None)
    assert cfg.cross_check is True and cfg == SweepConfig((3,), 5, 6, 0, ("sp:1:1",), 1, None, True)
    assert SweepConfig((3,), 5, 6, 0, ("sp:1:1",), 1, out=None, cross_check=False).cross_check is False
    assert parse_signature("sp:1:1")[0] == BlockSpec(kind="sp", degree=1, exponent=1) == BlockSpec("sp", 1, 1)
    report = samples()[VerificationReport]
    assert VerificationReport(*values(report)[:-1]).notes == ()
    for args, kwargs in [((1, 2), {}), ((1, 2, 3, 4), {}), ((1,), {"name": 1, "ok": 2, "detail": 3}),
                         ((1, 2), {"details": 3}), ((1, 2, 3, 4, 5), {})]:
        with pytest.raises(TypeError):
            Check(*args, **kwargs)
    with pytest.raises(TypeError):
        Matrix(3, 2)


def test_a_matrix_and_a_polynomial_are_not_tuples():
    m, f = samples()[Matrix], samples()[Poly]
    with pytest.raises(TypeError):
        m + m
    for obj in (m, f):
        with pytest.raises(TypeError):
            len(obj)
        with pytest.raises(TypeError):
            iter(obj)


def test_elements_above_the_table_cap_round_trip():
    x = gf.elem(16381, 2, (5, 7))
    assert 16381**2 > gf.TABLE_CAP  # a FieldElem of its own, not an interned one
    for back in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert back == x and hash(back) == hash(x) and back is not x
