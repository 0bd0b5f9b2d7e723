"""The package's records against frozen dataclasses with the same fields:
the same repr, equality, hash, read-only fields, constructor signature
and `__match_args__`."""

import copy
import inspect
import pickle
from dataclasses import FrozenInstanceError, field, make_dataclass
from fractions import Fraction as F

import pytest

import cuspgrowth
from cuspgrowth import (
    HIRZEBRUCH,
    AbelianHom,
    BaseSpace,
    ContractionPartition,
    CTowerLevel,
    CuspData,
    DTowerDatum,
    ExponentFit,
    FibrationData,
    FiniteAbelianGroup,
    GroupFamily,
    GroupOrder,
    IntMatrix,
    IntStatus,
    IntVerdict,
    LevelReport,
    Method,
    PairWitness,
    SmithDecomposition,
    TowerReport,
    TowerSpec,
    WeightTuple,
)
from cuspgrowth.values import Value

I2 = IntMatrix(((1, 0), (0, 1)), 2)
ROW = IntMatrix(((1, 0, 0, 0),), 4)
LEVEL = dict(degree=3, connected=True, cusp_multiplicities={"C0": 1, "Cinf": 3},
             total_cusps=4, b1_bound=5, factoring_fibration="proj1")

#: Each record with canonical field values, in field order.
RECORDS = [
    (WeightTuple, dict(weights=(F(1, 3), F(1, 3), F(1, 2), F(2, 3), F(1, 6)))),
    (PairWitness, dict(i=0, j=1, value=F(7, 3))),
    (IntStatus, dict(verdict=IntVerdict.HALF_INT, half_witnesses=(PairWitness(0, 1, F(5, 2)),),
                     fail_witnesses=())),
    (ContractionPartition, dict(blocks=((0, 1), (2,), (3,), (4,)))),
    (IntMatrix, dict(entries=((1, -2), (3, 4)), cols=2)),
    (SmithDecomposition, dict(u=I2, d=IntMatrix(((1, 0), (0, 2)), 2), v=I2)),
    (FiniteAbelianGroup, dict(invariant_factors=(2, 6))),
    (AbelianHom, dict(target=FiniteAbelianGroup((3,)), images=ROW)),
    (CuspData, dict(name="C", sublattice=IntMatrix(((1,), (0,)), 1))),
    (FibrationData, dict(name="F", kernel_sublattice=IntMatrix(((0,), (1,)), 1), target_rank=2,
                         fiber_genus=1, fiber_punctures=3)),
    (BaseSpace, dict(ambient_rank=4, cusps=HIRZEBRUCH.cusps, fibrations=HIRZEBRUCH.fibrations)),
    (TowerSpec, dict(base=HIRZEBRUCH, levels=(AbelianHom(FiniteAbelianGroup((3,)), ROW),))),
    (LevelReport, LEVEL),
    (TowerReport, dict(levels=(LevelReport(**LEVEL),))),
    (CTowerLevel, dict(level=2, degree=2, b1_surface=6, total_cusps=2)),
    (GroupOrder, dict(family=GroupFamily.SL, m=2, q=3, order=24, method=Method.FORMULA)),
    (DTowerDatum, dict(q=5, vol_proxy=378000, b1_proxy=122, cusp_proxy=3024)),
    (ExponentFit, dict(slope=1.5, intercept=-0.25, residual=0.0, points_used=3)),
]
#: The fields with a default, by record.
DEFAULTS = {
    IntStatus: {"half_witnesses": (), "fail_witnesses": ()},
    FiniteAbelianGroup: {"invariant_factors": ()},
    BaseSpace: {"fibrations": ()},
}
#: The records whose `cached_property` caches need an instance dict.
CACHED = {IntMatrix, BaseSpace}
IDS = [cls.__name__ for cls, _ in RECORDS]


def oracle(cls):
    """A frozen dataclass with the fields and defaults of `cls`."""
    defaults = DEFAULTS.get(cls, {})
    fields = [(name, object, field(default=defaults[name])) if name in defaults else name
              for name in dict(RECORDS)[cls]]
    return make_dataclass(cls.__name__, fields, frozen=True)


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def test_every_exported_record_is_covered():
    exported = {value for name in cuspgrowth.__all__
                if isinstance(value := getattr(cuspgrowth, name), type)
                and issubclass(value, Value)}
    assert exported == set(dict(RECORDS)) and len(RECORDS) == 18


@pytest.mark.parametrize("cls, values", RECORDS, ids=IDS)
def test_repr_eq_and_hash_match_a_frozen_dataclass(cls, values):
    record, twin = cls(**values), oracle(cls)(**values)
    assert repr(record) == repr(twin)
    assert record == cls(**values) == cls(*values.values())
    assert not record != cls(**values)
    assert hash_or_error(record) == hash_or_error(twin)
    assert hash_or_error(record) == hash_or_error(cls(*values.values()))


@pytest.mark.parametrize("cls, values", RECORDS, ids=IDS)
def test_another_class_with_equal_fields_is_unequal(cls, values):
    record, twin = cls(**values), oracle(cls)(**values)
    assert record != twin and twin != record
    assert not record == twin
    assert record != tuple(values.values())


@pytest.mark.parametrize("cls, values", RECORDS, ids=IDS)
def test_fields_are_read_only(cls, values):
    record = cls(**values)
    for name in [*values, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(FrozenInstanceError):  # what the dataclass raised
            setattr(oracle(cls)(**values), name, 1)
    assert [getattr(record, name) for name in values] == list(values.values())
    assert hasattr(record, "__dict__") == (cls in CACHED)


@pytest.mark.parametrize("cls, values", RECORDS, ids=IDS)
def test_signature_and_defaults_match(cls, values):
    def shape(c):
        return [(p.name, p.kind, p.default) for p in inspect.signature(c).parameters.values()]

    assert shape(cls) == shape(oracle(cls))
    defaults = DEFAULTS.get(cls, {})
    required = {name: v for name, v in values.items() if name not in defaults}
    record = cls(**required)
    assert repr(record) == repr(oracle(cls)(**required))
    assert all(getattr(record, name) == v for name, v in defaults.items())


@pytest.mark.parametrize("cls, values", RECORDS, ids=IDS)
def test_match_args_destructure_the_fields(cls, values):
    assert cls.__match_args__ == oracle(cls).__match_args__ == tuple(values)
    first = next(iter(values.values()))
    match cls(**values):
        case cls(head):
            assert head == first
        case _:
            pytest.fail("a record did not match its own class")


@pytest.mark.parametrize("cls, values", RECORDS, ids=IDS)
def test_copies_and_pickles_are_equal(cls, values):
    record = cls(**values)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record and repr(twin) == repr(record)
