"""``words.record`` against a ``dataclasses.dataclass`` oracle.

Every record class of the package is rebuilt from its own class body as a
frozen dataclass with the same ``eq`` flag (its twin), and the two are
compared on construction, defaults, ``__post_init__`` messages, equality,
hashing, ``repr`` and the refusal to assign or delete a field.
"""

import dataclasses
import math

import numpy as np
import pytest

from fockshift import algebra, cli, eigen, fock, spectra, weights, words
from fockshift.words import EMPTY, record

MODULES = (words, weights, fock, algebra, eigen, spectra, cli)
# what the decorator writes into a class; the twin is the class body without it
WRITTEN = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__", "_record_fields",
           "__dict__", "__weakref__"}
IDENTITY = {"EigenCandidate", "RegionSample", "ShiftMap", "FinitePerturbationWeights", "PeriodicWeights",
            "TabulatedWeights", "PrefixWeights", "TableMu"}
EQUAL_BY_FIELDS = {
    "FourierElement", "ExtractionResult", "PairingCheck", "SpectralRadiusBounds", "RunConfig", "ResidualReport",
    "GridSpec", "EllipseReport", "CommutationReport", "NormReport", "VacuumReport", "SpectrumReport",
    "ResolventReport", "GrowthCertificate", "ZeroLeftReport", "ConstantWeights", "ScaledWeights",
    "TwoLetterRunWeights", "CommutantMu", "DefectReport", "Condition6Report", "SemisimpleEstimate",
}
# the records whose __post_init__ checks its fields: valid arguments, then arguments it refuses
CHECKED = {
    "ConstantWeights": ((2, 0.5), [(2, -1.0), (2, math.nan)]),
    "ScaledWeights": ((2, (1.0, 2.0)), [(2, (1.0,)), (2, (1.0, 0.0))]),
    "FinitePerturbationWeights": ((1, 0, {(1, EMPTY): 2.0}, (1.5,)), [(1, -1, {}, (1.0,)), (1, 0, {}, (1.0,))]),
    "PeriodicWeights": ((1, 1, {(1, EMPTY): 2.0}), [(1, 0, {}), (1, 1, {(1, EMPTY): -2.0})]),
    "TwoLetterRunWeights": ((0.5, 1.0), [(0.0, 1.0), (1.0, math.inf)]),
    "TabulatedWeights": ((1, 1, [np.ones((1, 1)), np.full((1, 1), 2.0)]),
                         [(1, 2, [np.ones((1, 1))]), (1, 0, [np.zeros((1, 1))])]),
    "TableMu": ((1, 0, {(1, EMPTY): 1.0}, 2.0), [(1, -1, {}, 1.0), (1, 0, {(1, EMPTY): 2.0}, 1.0)]),
    "GridSpec": ((0.0, 1.0, 0.5), [(0.0, 1.0, 0.0), (math.nan, 1.0, 0.5), (0.0, 1e308, 1e-308)]),
}


def _records() -> dict[str, type]:
    return {cls.__name__: cls for module in MODULES for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__ and "_record_fields" in cls.__dict__}


def _twin(cls: type, bases: tuple[type, ...]) -> type:
    body = {name: value for name, value in cls.__dict__.items() if name not in WRITTEN}
    return type(cls.__name__, bases, {**body, "__qualname__": cls.__qualname__})


RECORDS = _records()
TWINS = {name: dataclasses.dataclass(frozen=True, eq=name not in IDENTITY)(_twin(cls, cls.__bases__))
         for name, cls in RECORDS.items()}
# PrefixWeights inherits the record methods of TabulatedWeights, as it inherited the dataclass ones
RECORDS["PrefixWeights"] = weights.PrefixWeights
TWINS["PrefixWeights"] = _twin(weights.PrefixWeights, (TWINS["TabulatedWeights"],))
CHECKED["PrefixWeights"] = CHECKED["TabulatedWeights"]


def _arguments(name: str) -> tuple:
    """Valid arguments, distinct per field where no ``__post_init__`` reads them."""
    if name in CHECKED:
        return CHECKED[name][0]
    return tuple(f"<{field.name}>" for field in dataclasses.fields(TWINS[name]))


def _raised(kind: type, build) -> str:
    with pytest.raises(kind) as info:
        build()
    return str(info.value)


def test_every_record_class_is_twinned_with_its_flag():
    assert set(_records()) | {"PrefixWeights"} == set(RECORDS) == IDENTITY | EQUAL_BY_FIELDS
    assert all(dataclasses.is_dataclass(twin) for twin in TWINS.values())


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_and_defaults_match_the_dataclass(name):
    cls, twin = RECORDS[name], TWINS[name]
    fields = dataclasses.fields(twin)
    assert cls._record_fields == tuple(field.name for field in fields)
    required = [field for field in fields if field.default is dataclasses.MISSING]
    args = _arguments(name)[: len(required)]
    for field in fields[len(required):]:
        assert getattr(cls(*args), field.name) == getattr(twin(*args), field.name) == field.default


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_construction_repr_equality_and_hash_match_the_dataclass(name):
    cls, twin = RECORDS[name], TWINS[name]
    args = _arguments(name)
    names = cls._record_fields
    built, oracle = cls(*args), twin(*args)
    assert repr(built) == repr(oracle)
    assert repr(cls(**dict(zip(names, args)))) == repr(oracle)
    assert repr(cls(args[0], **dict(zip(names[1:], args[1:])))) == repr(oracle)
    # another class never compares equal, on either side
    assert built != oracle and oracle != built and not built == oracle
    again = cls(*args)
    if name in IDENTITY:
        assert built == built and built != again and twin(*args) != oracle
        assert hash(built) == object.__hash__(built)
        return
    assert built == again and not built != again
    assert (cls(*args) == cls(*args)) == (twin(*args) == twin(*args))
    assert hash(built) == hash(oracle) == hash(tuple(getattr(oracle, field) for field in names))
    if name not in CHECKED:
        other = ("<other>",) + args[1:]
        assert (built == cls(*other)) == (oracle == twin(*other)) is False
        unhashable = ([],) + args[1:]
        assert _raised(TypeError, lambda: hash(cls(*unhashable))) == _raised(TypeError, lambda: hash(twin(*unhashable)))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_bad_arguments_raise_type_error(name):
    cls, twin = RECORDS[name], TWINS[name]
    args, first = _arguments(name), cls._record_fields[0]
    for kind in (cls, twin):
        assert repr(first) in _raised(TypeError, kind)
        assert "'unknown'" in _raised(TypeError, lambda: kind(*args, unknown=1))
        _raised(TypeError, lambda: kind(*args, args[0]))
        _raised(TypeError, lambda: kind(*args, **{first: args[0]}))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_frozen_fields_refuse_assignment_and_deletion(name):
    built, oracle = RECORDS[name](*_arguments(name)), TWINS[name](*_arguments(name))
    for field in RECORDS[name]._record_fields:
        assigned = [_raised(AttributeError, lambda: setattr(r, field, 0)) for r in (built, oracle)]
        deleted = [_raised(AttributeError, lambda: delattr(r, field)) for r in (built, oracle)]
        assert assigned[0] == assigned[1] == f"cannot assign to field {field!r}"
        assert deleted[0] == deleted[1] == f"cannot delete field {field!r}"


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_post_init_messages_match_the_dataclass(name):
    for args in CHECKED[name][1]:
        assert _raised(ValueError, lambda: RECORDS[name](*args)) == _raised(ValueError, lambda: TWINS[name](*args))


def test_record_bases_give_their_fields_first():
    @record
    class Base:
        a: int
        b: int = 2

    @record(eq=False)
    class Derived(Base):
        c: int = 3
        a: int = 0

    assert Derived._record_fields == ("a", "b", "c")
    assert repr(Derived()) == "test_record_bases_give_their_fields_first.<locals>.Derived(a=0, b=2, c=3)"
    assert Derived(1, c=4).c == 4 and Derived() == Derived()  # Base's __eq__, on Base's fields, as a dataclass
