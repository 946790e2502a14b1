"""The Record contract, checked on every record class in the package.

ipd's result and model types were frozen dataclasses; they are Records now,
and each must still construct, compare, hash, print, copy and pickle as the
dataclass it replaced.
"""

import copy
import pickle
from dataclasses import make_dataclass
from fractions import Fraction
from functools import cache, cached_property
from operator import attrgetter

import pytest

import ipd
from ipd.general import CutAssignment, _bank_columns, assemble_lp, solve_lp
from ipd.oracle import binary_grid_oracle
from ipd.record import Record

RECORDS = sorted(
    (cls for cls in Record.__subclasses__() if cls.__module__.startswith("ipd.")),
    key=attrgetter("__name__"),
)
IDENTITY = {"LpProblem", "LpSolution"}  # declared with eq=False


@cache
def _samples() -> dict:
    """One instance of each record class, taken from real solves."""
    half = Fraction(1, 2)
    prior = ipd.load_prior([(half, Fraction(3, 4)), (half, Fraction(1, 4))])
    solution = ipd.solve_binary(prior, exp_eps=Fraction(2))
    st = solution.structure
    u = ipd.UtilityFn("abs")
    prior3 = ipd.load_prior([(0.3, 0.9), (0.3, 0.5), (0.4, 0.1)])
    bank = CutAssignment(3, _bank_columns(3, True), 2.0)
    problem = assemble_lp(prior3, u, bank)
    found = [
        prior,
        solution,
        solution.regime,
        st,
        solution.mechanism,
        ipd.posterior_summary(st),
        u,
        ipd.UtilityFn("rewards", ((1, 0), (0, 1))),
        ipd.check_ip(st, exp_eps=Fraction(2)),
        ipd.check_regions(st, exp_eps=Fraction(2)),
        ipd.blackwell_dominates(ipd.posterior_summary(st), ipd.posterior_summary(st)),
        ipd.utility_gain(prior, u=u, exp_eps=Fraction(2)),
        ipd.gap_instance(delta=1, exp_eps=Fraction(3)),
        bank,
        problem,
        solve_lp(problem),
        ipd.solve_general(prior3, 0.7, u),
        binary_grid_oracle(prior, u=u, grid=4, exp_eps=Fraction(2)),
    ]
    return {type(x).__name__: x for x in found}


def _fields(obj) -> dict:
    return {name: getattr(obj, name) for name in type(obj).__annotations__}


@cache
def _dataclass_of(cls):
    """The frozen dataclass cls used to be."""
    eq = cls.__name__ not in IDENTITY
    return make_dataclass(cls.__name__, list(cls.__annotations__), frozen=True, eq=eq)


def _twin(obj):
    """obj's fields in the dataclass its class used to be."""
    return _dataclass_of(type(obj))(**_fields(obj))


def test_every_record_class_has_a_sample():
    assert len(RECORDS) == 17
    assert {cls.__name__ for cls in RECORDS} <= set(_samples())


@pytest.fixture(params=RECORDS, ids=attrgetter("__name__"))
def sample(request):
    return _samples()[request.param.__name__]


def test_repr_eq_and_hash_match_the_dataclass_form(sample):
    twin, rebuilt = _twin(sample), type(sample)(**_fields(sample))
    assert repr(sample) == repr(twin)
    assert (sample == rebuilt) == (twin == _twin(rebuilt))
    assert sample != twin and twin != sample
    if type(sample).__name__ in IDENTITY:
        return  # the hash is the identity's, see test_identity_records_compare_by_identity
    try:
        expected = hash(twin)
    except TypeError:  # a dict field, as in IpReport.binding
        with pytest.raises(TypeError):
            hash(sample)
    else:
        assert hash(sample) == expected


def test_fields_can_be_neither_assigned_nor_deleted(sample):
    for name in type(sample).__annotations__:
        with pytest.raises(AttributeError):
            setattr(sample, name, None)
        with pytest.raises(AttributeError):
            delattr(sample, name)
    with pytest.raises(AttributeError):
        sample.extra = 1


@pytest.mark.parametrize(
    "clone", [copy.copy, lambda x: pickle.loads(pickle.dumps(x))], ids=["copy", "pickle"]
)
def test_copy_and_pickle_round_trip(sample, clone):
    back = clone(sample)
    assert type(back) is type(sample)
    assert repr(back) == repr(sample)
    if type(sample).__name__ not in IDENTITY:
        assert back == sample
    for name, attr in vars(type(sample)).items():
        if isinstance(attr, cached_property):
            assert repr(getattr(back, name)) == repr(getattr(sample, name))


def test_missing_unknown_repeated_and_extra_fields_raise_type_error(sample):
    cls, fields = type(sample), _fields(sample)
    first, *rest = fields
    with pytest.raises(TypeError, match=f"missing field '{first}'"):
        cls(**{name: fields[name] for name in rest})
    with pytest.raises(TypeError, match="unknown field 'bogus'"):
        cls(**fields, bogus=1)
    with pytest.raises(TypeError, match=f"two values for field '{first}'"):
        cls(fields[first], **fields)
    with pytest.raises(TypeError, match="takes"):
        cls(*fields.values(), None)


def test_position_and_keyword_construct_the_same(sample):
    cls, fields = type(sample), _fields(sample)
    assert repr(cls(*fields.values())) == repr(cls(**fields)) == repr(sample)


def test_defaults_apply():
    abs_u = ipd.UtilityFn("abs")
    assert abs_u.rewards is None and vars(abs_u)["rewards"] is None
    assert abs_u == ipd.UtilityFn(family="abs") == ipd.UtilityFn("abs", None)
    assert repr(abs_u) == "UtilityFn(family='abs', rewards=None)"


def test_identity_records_compare_by_identity():
    samples = _samples()
    for name in IDENTITY:
        obj = samples[name]
        other = type(obj)(**_fields(obj))
        assert obj == obj and obj != other
        assert hash(obj) == object.__hash__(obj)


def test_records_differing_in_one_field_differ():
    regime = _samples()["BinarySolution"].regime
    other = type(regime)(regime.tag, regime.r1, regime.r2 + 1)
    assert regime != other and hash(regime) != hash(other)


class Single(Record):
    value: int


def test_one_field_record_hashes_as_its_field_tuple():
    twin = _dataclass_of(Single)
    assert hash(Single(3)) == hash(twin(3)) == hash((3,))
    assert repr(Single(value=3)) == repr(twin(3)) == "Single(value=3)"
    assert Single(3) == Single(3) != Single(4)


def test_a_class_without_fields_or_with_a_misplaced_default_is_refused():
    with pytest.raises(TypeError, match="declares no fields"):

        class Empty(Record):
            pass

    with pytest.raises(TypeError, match="without a default after one with"):

        class Misplaced(Record):
            first: int = 0
            second: int
