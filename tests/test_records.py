"""The result records keep the behaviour of the named tuples they
replaced: tuple equality, hashing and unpacking, positional, keyword and
default construction, the ``_fields``/``_asdict``/``_replace``/``_make``
helpers, ``__match_args__``, the ``repr`` text, and copying and pickling
by class name."""

import copy
import pickle

import pytest

from scrambles import (
    CrossCheck,
    GonalityResult,
    HittingSearchResult,
    HypothesisCheck,
    SeparatorBound,
    StrongSeparatorReport,
    TheoremReport,
)
from scrambles.verify import Theorem

# (record, one value per field, the defaults of the trailing fields)
CASES = [
    (HittingSearchResult, (3, 3, frozenset({0, 1, 2}), 0.5, 17), {}),
    (GonalityResult, (4, (1, 0, 0, 3), False, 8, 12, 30), {}),
    (StrongSeparatorReport, (frozenset({0}), False, frozenset({1, 2})), {}),
    (SeparatorBound, (2, frozenset({0, 3}), 1), {}),
    (HypothesisCheck, ("simple", True, "n=4"), {"witness": None}),
    (CrossCheck, ("verified", 4), {"value": None}),
    (
        TheoremReport,
        (
            "main",
            (HypothesisCheck("simple", True),),
            4,
            4,
            5,
            (HypothesisCheck("order_at_least_4", True, "n=6"),),
            CrossCheck("verified", 4),
        ),
        {
            "conclusion_value": None,
            "parameter": None,
            "upper_bound": None,
            "lemma_checks": (),
            "cross_check": None,
        },
    ),
    (
        Theorem,
        ("verify_main", 4, "girth3", False),
        {"example": None, "hypotheses": None, "cross_checked": True},
    ),
]


@pytest.mark.parametrize(
    "record, values, defaults", CASES, ids=[record.__name__ for record, _, _ in CASES]
)
def test_records_behave_as_named_tuples(record, values, defaults):
    fields = record._fields
    assert len(fields) == len(values)
    made = record(*values)

    assert isinstance(made, tuple) and len(made) == len(values)
    assert made == values and not made != values and hash(made) == hash(values)
    first, *rest = made
    assert (first, *rest) == values
    assert [getattr(made, name) for name in fields] == list(values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(made, name, None)
    assert not hasattr(made, "__dict__")

    assert record(**dict(zip(fields, values))) == made
    assert record(values[0], **dict(zip(fields[1:], values[1:]))) == made
    assert record._field_defaults == defaults
    required = len(fields) - len(defaults)
    assert record(*values[:required]) == values[:required] + tuple(defaults.values())
    with pytest.raises(TypeError):
        record(*values[: required - 1])
    with pytest.raises(TypeError):
        record(*values, None)
    with pytest.raises(TypeError):
        record(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError):
        record(*values, bogus=None)

    assert type(made._asdict()) is dict
    assert made._asdict() == dict(zip(fields, values))
    replaced = made._replace(**{fields[-1]: "x"})
    assert type(replaced) is record and replaced == values[:-1] + ("x",)
    # namedtuple raises ValueError here before Python 3.13, TypeError since
    with pytest.raises((TypeError, ValueError)):
        made._replace(bogus=None)
    remade = record._make(iter(values))
    assert type(remade) is record and remade == made
    with pytest.raises(TypeError):
        record._make(values[:-1])

    assert record.__match_args__ == fields
    match made:
        case record(matched):
            assert matched == values[0]
        case _:
            pytest.fail("the class pattern did not match")
    assert repr(made) == (
        f"{record.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(fields, values)) + ")"
    )

    copies = [copy.copy(made), copy.deepcopy(made)]
    copies += [
        pickle.loads(pickle.dumps(made, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for copied in copies:
        assert type(copied) is record and copied == made
