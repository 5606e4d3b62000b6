"""The value records: construction, defaults, equality, hashing, immutability.

The field names, their order and their defaults are written out here as the
records had them when they were dataclasses, so positional and keyword
construction keep working for every caller.
"""

import pytest

from homreg import constructions, corealg, linalg, regularity, resolution, series

# (class, fields in order, {field: default}, frozen)
RECORDS = [
    (corealg.AlgebraPresentation, ("field", "gen_names", "gen_degs", "relations", "label"),
     {"label": ""}, True),
    (corealg.ModulePresentation, ("algebra", "side", "gen_degs", "rows", "row_degrees"), {}, True),
    (linalg.RowReduction, ("rank", "pivots", "rref", "kernel"), {}, False),
    (series.TruncatedSeries, ("coefficients", "truncation"), {}, True),
    (series.RationalSeries, ("numerator", "denominator", "denom_exponents", "degree"), {}, True),
    (series.StanleyVerdict, ("satisfied", "sign", "shift"), {"sign": None, "shift": None}, True),
    (resolution.Resolution,
     ("label", "shifts", "maps", "i_max", "d_max", "terminated", "termination_step", "certificate"),
     {}, False),
    (resolution.BettiTable,
     ("entries", "steps_computed", "i_max", "d_max", "terminated", "termination_step"), {}, False),
    (resolution.ExtTable, ("entries", "windows"), {}, False),
    (regularity.BoundedValue, ("kind", "value", "note"), {"note": ""}, True),
    (regularity.KoszulVerdict, ("status", "caveat", "witness"), {"caveat": "", "witness": None}, True),
    (regularity.ASRegularVerdict, ("status", "dim", "index", "reason"),
     {"dim": None, "index": None, "reason": ""}, True),
    (regularity.HilbertCriterionResult, ("verdict", "h_degree", "s", "assertions", "witness_notes"), {}, True),
    (regularity.ConcavityWitness,
     ("label", "neg_cmreg", "as_regular_ok", "finite_ok", "koszul_ok"),
     {"koszul_ok": False}, True),
    (regularity.ConcavityBound, ("upper", "exact", "c_minus", "witnesses", "notes"), {}, True),
    (regularity.ObstructionVerdict, ("status", "inequality", "beta1", "beta2", "notes"), {"notes": ()}, True),
    (regularity.RegularityReport,
     ("label", "window", "torreg_k", "cmreg", "cm_evidence", "asreg", "koszul", "as_regular",
      "gldim", "as_index", "stanley", "betti_provenance", "annotations", "assertions"),
     {}, False),
    (regularity.HarnessCase, ("name", "kind", "lhs", "rhs", "detail"),
     {"lhs": None, "rhs": None, "detail": ""}, True),
    (regularity.HarnessResult, ("name", "status", "detail"), {}, True),
    (constructions.NormalElementCertificate,
     ("element_text", "degree", "left_witnesses", "regular_ok", "checked_to"),
     {}, True),
    (constructions.FiniteMapCertificate,
     ("images_text", "left_cokernel", "right_cokernel", "verdict"), {}, True),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def values_for(fields, tag=""):
    return ["%s%s" % (f, tag) for f in fields]


def test_every_record_is_listed():
    assert len(RECORDS) == len(set(IDS)) == 21
    listed = {cls for cls, *_ in RECORDS}
    for module in (corealg, linalg, series, resolution, regularity, constructions):
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, corealg.Record) and obj is not corealg.Record:
                assert obj in listed
    assert [cls.__name__ for cls, *_, frozen in RECORDS if not frozen] == [
        "RowReduction", "Resolution", "BettiTable", "ExtTable", "RegularityReport"
    ]


@pytest.mark.parametrize("cls, fields, defaults, frozen", RECORDS, ids=IDS)
def test_construction_by_position_and_keyword(cls, fields, defaults, frozen):
    values = values_for(fields)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    mixed = cls(*values[:1], **dict(zip(fields[1:], values[1:])))
    for rec in (by_position, by_keyword, mixed):
        assert [getattr(rec, f) for f in fields] == values
        assert not hasattr(rec, "__dict__")
    assert by_position == by_keyword == mixed
    assert repr(by_position) == "%s(%s)" % (
        cls.__qualname__, ", ".join("%s=%r" % (f, v) for f, v in zip(fields, values))
    )


@pytest.mark.parametrize("cls, fields, defaults, frozen", RECORDS, ids=IDS)
def test_defaults(cls, fields, defaults, frozen):
    required = [f for f in fields if f not in defaults]
    assert fields[: len(required)] == tuple(required)  # defaults come last
    rec = cls(*values_for(required))
    for f in fields:
        assert getattr(rec, f) == defaults.get(f, f)


@pytest.mark.parametrize("cls, fields, defaults, frozen", RECORDS, ids=IDS)
def test_missing_unknown_or_repeated_field_is_type_error(cls, fields, defaults, frozen):
    values = values_for(fields)
    required = [f for f in fields if f not in defaults]
    with pytest.raises(TypeError):
        cls(*values_for(required[:-1]))
    with pytest.raises(TypeError):
        cls(**{f: v for f, v in zip(fields, values) if f != required[-1]})
    with pytest.raises(TypeError):
        cls(*values, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*values, "one too many")
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})


@pytest.mark.parametrize("cls, fields, defaults, frozen", RECORDS, ids=IDS)
def test_value_equality(cls, fields, defaults, frozen):
    values = values_for(fields)
    rec = cls(*values)
    assert rec == cls(*values_for(fields))
    for k in range(len(fields)):
        other = values[:k] + ["changed"] + values[k + 1:]
        assert rec != cls(*other)
    assert rec != tuple(values)
    for other_cls, other_fields, _, _ in RECORDS:
        if other_cls is not cls:
            assert rec != other_cls(*values_for(other_fields))
            assert rec.__eq__(other_cls(*values_for(other_fields))) is NotImplemented


@pytest.mark.parametrize(
    "cls, fields, defaults, frozen",
    [r for r in RECORDS if r[3]],
    ids=[i for i, r in zip(IDS, RECORDS) if r[3]],
)
def test_frozen_records_are_immutable_and_hashable(cls, fields, defaults, frozen):
    rec = cls(*values_for(fields))
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(rec, f, "new")
        with pytest.raises(AttributeError):
            delattr(rec, f)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    assert [getattr(rec, f) for f in fields] == values_for(fields)
    twin = cls(*values_for(fields))
    assert twin is not rec and hash(twin) == hash(rec)
    assert len({rec, twin, cls(*values_for(fields, "'"))}) == 2


@pytest.mark.parametrize(
    "cls, fields, defaults, frozen",
    [r for r in RECORDS if not r[3]],
    ids=[i for i, r in zip(IDS, RECORDS) if not r[3]],
)
def test_mutable_records_are_assignable_and_unhashable(cls, fields, defaults, frozen):
    rec = cls(*values_for(fields))
    for f in fields:
        setattr(rec, f, f + " new")
    assert rec == cls(*values_for(fields, " new"))
    with pytest.raises(TypeError):
        hash(rec)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
