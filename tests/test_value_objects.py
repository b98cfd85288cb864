"""The value-object contract of ``GreyNumber``, ``Literal`` and ``BinaryOp``.

Each is immutable, constructs positionally or by keyword, compares equal
only to an instance of its own class with equal fields (endpoints as
floats, so -0.0 equals 0.0), hashes consistently with that, prints as
``Class(field=value, ...)``, matches positional class patterns, and
survives ``copy``, ``deepcopy`` and ``pickle``.
"""

import copy
import pickle

import pytest

from greyassess import BinaryOp, GreyNumber, Literal


def lit(lo, hi=None):
    return Literal(GreyNumber(lo, lo if hi is None else hi))


def samples():
    """``(object, an equal object built separately, its repr)`` for each class."""
    return [
        (GreyNumber(1, 2), GreyNumber(1.0, 2.0), "GreyNumber(lower=1.0, upper=2.0)"),
        (GreyNumber(-0.0, 0.0), GreyNumber(0, 0), "GreyNumber(lower=-0.0, upper=0.0)"),
        (lit(-1.5, 3), lit(-1.5, 3.0), "Literal(value=GreyNumber(lower=-1.5, upper=3.0))"),
        (lit(-0.0), lit(0.0), "Literal(value=GreyNumber(lower=-0.0, upper=-0.0))"),
        (
            BinaryOp("*", lit(2), BinaryOp("-", lit(-0.0), lit(85, 100))),
            BinaryOp("*", lit(2.0), BinaryOp("-", lit(0), lit(85.0, 100.0))),
            "BinaryOp(op='*', left=Literal(value=GreyNumber(lower=2.0, upper=2.0)), "
            "right=BinaryOp(op='-', left=Literal(value=GreyNumber(lower=-0.0, upper=-0.0)), "
            "right=Literal(value=GreyNumber(lower=85.0, upper=100.0))))",
        ),
    ]


IDS = ["grey", "grey-signed-zero", "literal", "literal-signed-zero", "binary-op"]
FIELDS = {GreyNumber: ("lower", "upper"), Literal: ("value",), BinaryOp: ("op", "left", "right")}


@pytest.mark.parametrize("obj, equal, text", samples(), ids=IDS)
class TestContract:
    def test_equal_objects_hash_equal(self, obj, equal, text):
        assert obj == equal and equal == obj
        assert not obj != equal
        assert hash(obj) == hash(equal)
        assert len({obj, equal}) == 1

    def test_other_classes_are_never_equal(self, obj, equal, text):
        fields = tuple(getattr(obj, name) for name in FIELDS[type(obj)])
        assert obj.__eq__(fields) is NotImplemented
        assert obj != fields and fields != obj
        subclass = type("Subclass", (type(obj),), {"__slots__": ()})
        assert obj != subclass(*fields) and subclass(*fields) != obj
        for other in (GreyNumber(1, 2), lit(1, 2), BinaryOp("+", lit(1), lit(2)), None, 1.0):
            if type(other) is not type(obj):
                assert obj != other

    def test_repr_is_exact(self, obj, equal, text):
        assert repr(obj) == text

    def test_keyword_construction(self, obj, equal, text):
        cls = type(obj)
        fields = {name: getattr(obj, name) for name in FIELDS[cls]}
        assert cls(**fields) == obj
        assert cls(*fields.values()) == obj
        with pytest.raises(TypeError):
            cls(*list(fields.values())[:-1])

    def test_match_positional_pattern(self, obj, equal, text):
        assert type(obj).__match_args__ == FIELDS[type(obj)]
        match obj:
            case GreyNumber(lower, upper):
                matched = (lower, upper)
            case Literal(value):
                matched = (value,)
            case BinaryOp(op, left, right):
                matched = (op, left, right)
        assert matched == tuple(getattr(obj, name) for name in FIELDS[type(obj)])

    def test_assignment_and_deletion_raise(self, obj, equal, text):
        for name in FIELDS[type(obj)] + ("other",):
            with pytest.raises(AttributeError):
                setattr(obj, name, 5.0)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert repr(obj) == text

    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy]
        + [
            lambda obj, protocol=protocol: pickle.loads(pickle.dumps(obj, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ],
        ids=["copy", "deepcopy"] + [f"pickle-{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)],
    )
    def test_copy_and_pickle_round_trip(self, obj, equal, text, round_trip):
        again = round_trip(obj)
        assert type(again) is type(obj)
        assert again == obj and hash(again) == hash(obj)
        assert repr(again) == text
        with pytest.raises(AttributeError):
            setattr(again, FIELDS[type(obj)][0], 5.0)
