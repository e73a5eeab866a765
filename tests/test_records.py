"""The slotted value records keep the semantics of frozen dataclasses.

Each record is compared with a frozen dataclass built here from the same
field list and defaults: construction, equality, hashing, repr, copying and
refused assignment must all agree.
"""

import copy
import dataclasses

import pytest

from spheremat.finitegrp import FiniteGroupTable
from spheremat.intmat import IntMatrix, ResidueMatrix
from spheremat.ledger import LedgerEntry, LedgerResult
from spheremat.permutation import Permutation
from spheremat.spheres import CollisionWitness, quaternion
from spheremat.subgroups import (
    CosetCertificate,
    MembershipCheck,
    ObstructionReport,
    ObstructionVerdict,
)
from spheremat.words import E, TAU, GeneratorSymbol, GeneratorWord, J, RewriteCaseReport

_NO_DEFAULT = object()
_I3 = ResidueMatrix.identity(2, 3)
_Q = (quaternion(1, 0, 0, 0), quaternion(0, 1, 0, 0))


def _check():
    return True, "fine"


# (record, [(field, default or _NO_DEFAULT)], sample values, one other sample)
RECORDS = [
    (
        CosetCertificate,
        [("uses_tau", _NO_DEFAULT), ("sigma", _NO_DEFAULT), ("residual", _NO_DEFAULT)],
        (True, Permutation([2, 3, 1]), IntMatrix([[1, 2, 0], [0, 1, 0], [0, 0, 1]])),
        (False, Permutation([2, 3, 1]), IntMatrix([[1, 2, 0], [0, 1, 0], [0, 0, 1]])),
    ),
    (
        MembershipCheck,
        [("member", _NO_DEFAULT), ("reason", _NO_DEFAULT)],
        (True, "determinant is +-1"),
        (True, "determinant is 1"),
    ),
    (
        GeneratorSymbol,
        [("kind", _NO_DEFAULT), ("i", 0), ("j", 0), ("sigma", None)],
        ("TAU", 0, 0, None),  # valid with the defaults alone
        ("NEG", 0, 0, None),
    ),
    (
        GeneratorWord,
        [("n", _NO_DEFAULT), ("letters", ())],
        (2, ((E(1, 2), 2), (E(2, 1), -1))),
        (2, ((E(1, 2), 2),)),
    ),
    (
        RewriteCaseReport,
        [("family", _NO_DEFAULT), ("sign", _NO_DEFAULT), ("generator_kind", _NO_DEFAULT),
         ("condition", _NO_DEFAULT), ("instances", _NO_DEFAULT), ("corrected", _NO_DEFAULT)],
        ("E-on-E", 1, "E", "disjoint", 12, ()),
        ("E-on-E", -1, "E", "disjoint", 12, ("fix",)),
    ),
    (
        ObstructionReport,
        [("n", _NO_DEFAULT), ("pair", _NO_DEFAULT), ("cross", _NO_DEFAULT), ("diag", _NO_DEFAULT)],
        (2, (1, 2), {(1, 2): 1}, (12, 6)),
        (2, (1, 2), {(1, 2): -1}, (12, 6)),
    ),
    (
        ObstructionVerdict,
        [("k_class", _NO_DEFAULT), ("realizable", _NO_DEFAULT), ("violations", _NO_DEFAULT)],
        ("even", False, (((1, 2), 1),)),
        ("even", True, ()),
    ),
    (
        FiniteGroupTable,
        [("n", _NO_DEFAULT), ("m", _NO_DEFAULT), ("generators", _NO_DEFAULT),
         ("elements", _NO_DEFAULT)],
        (2, 3, (_I3,), frozenset({_I3})),
        (2, 3, (), frozenset({_I3})),
    ),
    (
        CollisionWitness,
        [("matrix", _NO_DEFAULT), ("first_input", _NO_DEFAULT), ("second_input", _NO_DEFAULT),
         ("first_image", _NO_DEFAULT), ("second_image", _NO_DEFAULT), ("expected", _NO_DEFAULT),
         ("max_error", _NO_DEFAULT), ("input_separation", _NO_DEFAULT)],
        (IntMatrix([[1, -1], [-1, 2]]), _Q, _Q, _Q, _Q, _Q, 0.0, 2.0),
        (IntMatrix([[1, -1], [-1, 2]]), _Q, _Q, _Q, _Q, _Q, 1e-3, 2.0),
    ),
    (
        LedgerEntry,
        [("key", _NO_DEFAULT), ("claim", _NO_DEFAULT), ("check", _NO_DEFAULT)],
        ("jr", "JR expands into J letters", _check),
        ("jr", "JR expands into J letters", lambda: (False, "")),
    ),
    (
        LedgerResult,
        [("key", _NO_DEFAULT), ("claim", _NO_DEFAULT), ("ok", _NO_DEFAULT), ("detail", _NO_DEFAULT)],
        ("jr", "JR expands into J letters", True, "8 pairs"),
        ("jr", "JR expands into J letters", False, "8 pairs"),
    ),
]


def _reference(cls, fields):
    spec = [
        (name, object) if default is _NO_DEFAULT
        else (name, object, dataclasses.field(default=default))
        for name, default in fields
    ]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "cls, fields, values, other", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_matches_frozen_dataclass(cls, fields, values, other):
    ref_cls = _reference(cls, fields)
    names = [name for name, _ in fields]
    x = cls(*values)
    ref = ref_cls(*values)

    assert cls.__slots__ == tuple(names) and not hasattr(x, "__dict__")
    assert [getattr(x, name) for name in names] == list(values)
    assert cls(**dict(zip(names, values))) == x
    assert repr(x) == repr(ref)
    assert _hash_or_error(x) == _hash_or_error(ref)

    twin = cls(*values)
    assert twin == x and not twin != x and twin is not x
    assert cls(*other) != x
    assert x != ref and x != values
    assert copy.copy(x) == x

    for name in names:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.not_a_field = 1
    assert [getattr(x, name) for name in names] == list(values)

    required = [v for (name, default), v in zip(fields, values) if default is _NO_DEFAULT]
    bare = cls(*required)
    assert repr(bare) == repr(ref_cls(*required))
    with pytest.raises(TypeError, match=rf"{cls.__name__}\.__init__\(\) missing"):
        cls()


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (("X",), {}, "unknown symbol kind 'X'"),
        (("E", 1, 1), {}, r"bad elementary indices \(1,1\)"),
        (("E",), {"i": 0, "j": 2}, r"bad elementary indices \(0,2\)"),
        (("J",), {}, "J index must be >= 1"),
        (("JR", 2, 2), {}, r"bad sign-pair indices \(2,2\)"),
        (("P",), {}, "P requires an even permutation"),
        (("P",), {"sigma": Permutation([2, 1, 3])}, "P requires an even permutation"),
    ],
)
def test_generator_symbol_validation(args, kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GeneratorSymbol(*args, **kwargs)


@pytest.mark.parametrize(
    "args, message",
    [
        ((0,), "dimension must be at least 1"),
        ((2, ((E(1, 2), 0),)), r"letters must be \(symbol, nonzero exponent\) pairs"),
        ((2, (("E", 1),)), r"letters must be \(symbol, nonzero exponent\) pairs"),
        ((3, ((J(1), 1.5),)), r"exponent 1\.5 is not an integer"),
        ((2, ((TAU, 2.5),)), r"exponent 2\.5 is not an integer"),
        ((2, ((E(1, 2), 2.0),)), r"exponent 2\.0 is not an integer"),
    ],
)
def test_generator_word_validation(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GeneratorWord(*args)
