"""The result and input records of every layer.

Each public record is a NamedTuple, or a slotted class where it validates
(DimensionSequence, which also iterates over its values rather than its
fields). For each one these tests pin the field names, their order and
defaults, positional and keyword construction, value equality and hashing,
that a field cannot be assigned, the Name(field=value, ...) repr, and that
copy, deepcopy and pickle rebuild the record. The validating constructors
still refuse bad input, also through _replace.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from gkdim.axioms import (AxiomReport, ChainReport, HolonomyCatalog,
                          HolonomyReport, SESSpec, TorsionReport)
from gkdim.catalog import CatalogEntry
from gkdim.cli import ParsedInput, RunConfig
from gkdim.exactnum import BinomialForm, HilbertSamuelPolynomial, Polynomial
from gkdim.hilbert import DimensionSequence
from gkdim.poincare import (DenominatorAnalysis, QuasiPolynomial,
                            RationalAnalysis, RationalSeries, Recurrence)
from gkdim.presentations import (AdmissibilityReport, AdmissibleOrder,
                                 AlgebraSpec, ModuleSpec, Relation, SpecError,
                                 Summand)
from gkdim.samuel import GrowthReport

ONE = Polynomial([1])
SERIES = RationalSeries(ONE, Polynomial([1, -1]))
RECURRENCE = Recurrence(1, (Fraction(1),), 0)
ANALYSIS = DenominatorAnalysis("all_roots_on_unit_circle", s=1, d=1,
                               cyclotomic_multiplicities={1: 1})

#: (record, its required fields with sample values, its defaults), both in
#: field order; the defaults are the values a record built from the
#: required fields alone must hold
RECORDS = [
    (Relation, {"greater": 1, "lesser": 0, "scalar": Fraction(2)}, {"lower": ()}),
    (AlgebraSpec, {"kind": "polynomial", "names": ("x",), "degrees": ((1,),)},
     {"lam": None, "weyl_rank": None, "relations": ()}),
    (AdmissibleOrder, {"kind": "lex"}, {"weight": None}),
    (AdmissibilityReport, {"ok": True}, {"counterexample": None, "reason": None}),
    (Summand, {}, {"shift": 0, "ideal": ()}),
    (ModuleSpec, {}, {"summands": (), "negative_shift": None}),
    (SESSpec, {"ambient": AlgebraSpec.polynomial(1), "big": ModuleSpec.regular(),
               "sub_ideals": (((1,),),)}, {}),
    (AxiomReport, {"gk_triple": (0, 1, 1), "e_values": (0, 1, 1), "case": "a",
                   "exactness_ok": True, "additivity_ok": None}, {"notes": ()}),
    (ChainReport, {"n": 1, "e_m": Fraction(1), "gk_m": 1, "bound_ok": True,
                   "quotients_full_gk": True}, {"notes": ()}),
    (HolonomyCatalog, {}, {"override": None}),
    (HolonomyReport, {"gk": 2, "h": 1, "defect": 1, "min_holonomic": False}, {}),
    (TorsionReport, {"applicable": False, "torsion": None, "reason": "r"}, {}),
    (CatalogEntry, {"entry_id": "e", "description": "d",
                    "expected_classification": "inconclusive"}, {}),
    (HilbertSamuelPolynomial, {"form": BinomialForm([1, 1]),
                               "stabilization_index": 0}, {}),
    (DimensionSequence, {"values": (1, 2, 3)}, {"meaning": "cumulative"}),
    (RationalSeries, {"numerator": ONE, "denominator": Polynomial([1, -1])}, {}),
    (Recurrence, {"order": 1, "coefficients": (Fraction(1),), "onset": 0}, {}),
    (DenominatorAnalysis, {"radius_class": "inside_unit_disk"},
     {"s": None, "d": None, "cyclotomic_multiplicities": {}, "residual": ONE,
      "linear_factors": (), "notes": ()}),
    (QuasiPolynomial, {"period": 2, "branches": (ONE, ONE), "onset": 0}, {}),
    (RationalAnalysis, {"recurrence": RECURRENCE, "series": SERIES,
                        "denominator": ANALYSIS},
     {"period": None, "mixed_cyclotomic": False, "quasi": None, "refusal": None}),
    (GrowthReport, {"classification": "inconclusive"},
     {"gk": None, "multiplicity": None, "evidence": "",
      "hilbert_samuel": None, "recurrence": None, "series": None,
      "denominator": None, "quasi": None, "flags": ()}),
    (RunConfig, {"command": "analyze", "input_path": "in.json"},
     {"max_degree": 30, "window": 6, "confirm": 8, "output": None, "fmt": "json",
      "h_override": None}),
    (ParsedInput, {}, {"algebra": None, "catalog_id": None, "module": None,
                       "sub_ideals": None, "chain": None, "sequence": None,
                       "weight": None}),
]

#: records holding a dict, which no hash can cover (DenominatorAnalysis was
#: a mutable record, and RationalAnalysis holds one)
UNHASHABLE = {DenominatorAnalysis, RationalAnalysis}

IDS = [cls.__name__ for cls, _, _ in RECORDS]


def _field_names(cls) -> tuple:
    return getattr(cls, "_fields", None) or cls.__slots__


def test_every_record_is_covered():
    assert len(RECORDS) == len(set(IDS)) == 23


@pytest.mark.parametrize("cls, required, defaults", RECORDS, ids=IDS)
def test_fields_defaults_and_construction(cls, required, defaults):
    assert _field_names(cls) == tuple(required) + tuple(defaults)
    record = cls(*required.values())
    for name, value in {**required, **defaults}.items():
        assert getattr(record, name) == value, name
    assert cls(**required) == record


@pytest.mark.parametrize("cls, required, defaults", RECORDS, ids=IDS)
def test_equality_and_hashing(cls, required, defaults):
    record, twin = cls(*required.values()), cls(**required)
    assert record == twin and not record != twin
    assert record is not twin
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)
        assert len({record, twin}) == 1


@pytest.mark.parametrize("cls, required, defaults", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(cls, required, defaults):
    record = cls(*required.values())
    for name in _field_names(cls):
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("cls, required, defaults", RECORDS, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(cls, required, defaults):
    record = cls(*required.values())
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record


def test_records_holding_records_round_trip():
    report = GrowthReport("polynomial", gk=2, series=SERIES,
                          denominator=DenominatorAnalysis("inside_unit_disk"))
    nested = (report, DimensionSequence((1, 3, 6)), ANALYSIS)
    assert pickle.loads(pickle.dumps(nested)) == copy.deepcopy(nested) == nested


@pytest.mark.parametrize("cls, required, defaults", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, required, defaults):
    record = cls(*required.values())
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in _field_names(cls))
    assert repr(record) == f"{cls.__name__}({fields})"


def test_reprs_of_a_few_records_are_pinned():
    assert repr(Summand(2, ((1, 0),))) == "Summand(shift=2, ideal=((1, 0),))"
    assert repr(DimensionSequence([1, 2], "graded_piece")) == \
        "DimensionSequence(values=(1, 2), meaning='graded_piece')"
    assert repr(RunConfig("chain", "x.json", max_degree=40)) == (
        "RunConfig(command='chain', input_path='x.json', max_degree=40, window=6, "
        "confirm=8, output=None, fmt='json', h_override=None)")


def test_records_are_tuples_and_replace_by_field():
    config = RunConfig("analyze", "in.json")
    assert tuple(config) == ("analyze", "in.json", 30, 6, 8, None, "json", None)
    assert config._replace(window=4).window == 4 and config.window == 6
    assert config._asdict()["fmt"] == "json"
    assert Summand(1, ()) == (1, ())


def test_a_dimension_sequence_iterates_over_its_values():
    seq = DimensionSequence([1, 3, 6])
    assert (len(seq), list(seq), seq[1], seq[-1]) == (3, [1, 3, 6], 3, 6)
    assert seq != (1, 3, 6) and seq != DimensionSequence([1, 3, 6], "graded_piece")
    assert seq.graded() == DimensionSequence((1, 2, 3), "graded_piece")


def test_dimension_sequence_refuses_bad_input():
    with pytest.raises(ValueError, match="unknown sequence meaning"):
        DimensionSequence((1, 2), "layers")
    with pytest.raises(ValueError, match="natural numbers"):
        DimensionSequence((1, -2, 3), "graded_piece")
    with pytest.raises(ValueError, match="natural numbers"):
        DimensionSequence((1, Fraction(1, 2)))
    with pytest.raises(ValueError, match="nondecreasing"):
        DimensionSequence((1, 3, 2))
    assert DimensionSequence((1, 3, 2), "graded_piece").values == (1, 3, 2)


def test_rational_series_refuses_a_denominator_off_one_at_zero():
    with pytest.raises(ValueError, match="constant term 1"):
        RationalSeries(ONE, Polynomial([2, -1]))
    with pytest.raises(ValueError, match="constant term 1"):
        RationalSeries(ONE, Polynomial([]))
    with pytest.raises(ValueError, match="constant term 1"):
        SERIES._replace(denominator=Polynomial([3]))
    assert SERIES._replace(numerator=Polynomial([2])).numerator == Polynomial([2])


def test_admissible_order_refuses_bad_kinds_and_weights():
    with pytest.raises(SpecError) as e:
        AdmissibleOrder("revlex")
    assert e.value.path == "order.kind"
    for bad in (None, (), (1, 0), (1, -2), (1, 1.5)):
        with pytest.raises(SpecError) as e:
            AdmissibleOrder("weightlex", bad)
        assert e.value.path == "order.weight"
    with pytest.raises(SpecError) as e:
        AdmissibleOrder("deglex", (1, 1))
    assert e.value.path == "order.weight"
    with pytest.raises(SpecError):
        AdmissibleOrder("lex")._replace(kind="weightlex")
    # the weight is normalised to a tuple
    order = AdmissibleOrder("weightlex", [2, 1])
    assert order.weight == (2, 1) and order == AdmissibleOrder(kind="weightlex", weight=(2, 1))
    assert order.compare((1, 0), (0, 1)) == 1


def test_default_denominator_analyses_share_no_mutable_state():
    a, b = DenominatorAnalysis("inside_unit_disk"), DenominatorAnalysis("inside_unit_disk")
    with pytest.raises(TypeError):
        a.cyclotomic_multiplicities[1] = 1
    assert b.cyclotomic_multiplicities == {} and a.cyclotomic_multiplicities == {}
    # an analysis given a dict holds that dict, not the shared default
    mults = {1: 2}
    c = DenominatorAnalysis("all_roots_on_unit_circle", cyclotomic_multiplicities=mults)
    assert c.cyclotomic_multiplicities is mults
    assert a.residual == Polynomial.one() and a.linear_factors == a.notes == ()
