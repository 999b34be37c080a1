import dataclasses
import json
import re
from fractions import Fraction

import pytest

from zetaident import reference
from zetaident.derive import (
    IdentitySpec,
    derive_identity,
    identities_from_json_text,
    identities_to_json_text,
    identity_from_json,
    identity_to_json,
    series_poly,
)


def test_round_trip_is_lossless(specs64):
    for spec in specs64.values():
        assert identity_from_json(identity_to_json(spec)) == spec


def test_round_trip_through_text(specs64):
    specs = list(specs64.values())
    text = identities_to_json_text(specs)
    assert identities_from_json_text(text) == specs


def test_rationals_serialize_with_explicit_denominator(specs64):
    record = identity_to_json(specs64[3])
    assert record["pole_coefficient"] == "1/1"
    assert record["q_poly"] == ["1/2", "1/12"]
    assert record["validity_re_gt"] == "-2/1"
    assert record["extended_validity_re_gt"] == "-3/1"
    for term in record["terms"]:
        assert set(term) == {"k", "r"}
        assert "/" in term["r"]


def test_schema_fields(specs64):
    record = identity_to_json(specs64[5])
    assert set(record) == {
        "p",
        "k0",
        "pole_coefficient",
        "q_poly",
        "terms",
        "closed_form",
        "validity_re_gt",
        "extended_validity_re_gt",
    }
    assert record["closed_form"] is not None
    assert list(record["closed_form"]) == ["k_poly"]


def test_optional_fields_round_trip_as_null():
    odd = derive_identity(3, 5)
    assert identity_to_json(odd)["extended_validity_re_gt"] == "-3/1"
    even = derive_identity(2, 8)
    record = identity_to_json(even)
    assert record["extended_validity_re_gt"] is None
    assert identity_from_json(record) == even


@pytest.mark.parametrize("p", [1, 2, 3, 12])
def test_null_closed_form_reads_as_the_derived_polynomial(p):
    spec = derive_identity(p, p + 6)
    record = {**identity_to_json(spec), "closed_form": None}
    loaded = identity_from_json(record)
    assert loaded == spec
    assert loaded.closed_form == series_poly(p)
    # written back, the record carries its closed form
    assert identity_to_json(loaded) == identity_to_json(spec)


def test_null_closed_form_with_a_wrong_term_is_rejected():
    record = {**identity_to_json(derive_identity(5, 20)), "closed_form": None}
    record["terms"] = [dict(term) for term in record["terms"]]
    record["terms"][3]["r"] = "1/7"  # k = 9
    with pytest.raises(ValueError, match=r"depth-5 .*r_9 = .*not the stored 1/7"):
        identity_from_json(record)


def test_stored_closed_form_with_a_wrong_term_is_rejected():
    # the spec keeps only the closed form, so one that disagrees with the
    # listed terms would otherwise replace the record's r_k unseen
    record = identity_to_json(derive_identity(2, 20))
    record["closed_form"] = {"k_poly": ["7/1"]}
    with pytest.raises(ValueError, match=r"depth-2 record has a closed_form that gives r_2 = 7, not"):
        identity_from_json(record)


@pytest.mark.parametrize(
    "k0, match",
    [
        # r_4 = -1/6 is the first nonzero term: a record that starts at 5
        # would drop it, and evaluate zeta(2) as 1.6478...
        pytest.param(5, r"^depth-3 record states k0 = 5, not the derived 4$", id="5"),
        # r_1 = -1/6 is nonzero, but the series of depth 3 starts at k >= 3
        pytest.param(1, r"^depth-3 record states k0 = 1, not the derived 4$", id="1"),
    ],
)
def test_record_with_a_wrong_k0_is_rejected(k0, match):
    spec = derive_identity(3, 12)
    record = identity_to_json(spec)
    record["k0"] = k0
    record["terms"] = [{"k": k, "r": str(spec.closed_form(k))} for k in range(k0, 13)]
    with pytest.raises(ValueError, match=match):
        identity_from_json(record)


def test_record_with_a_pole_other_than_one_is_rejected():
    record = identity_to_json(derive_identity(3, 12))
    record["pole_coefficient"] = "2/1"
    with pytest.raises(ValueError, match=r"^depth-3 record states pole_coefficient = 2, not the derived 1$"):
        identity_from_json(record)


def test_json_is_plain_data(specs64):
    text = identities_to_json_text([specs64[7]])
    parsed = json.loads(text)
    assert isinstance(parsed, list) and len(parsed) == 1
    assert parsed[0]["p"] == 7


def test_single_record_text_accepted(specs64):
    text = json.dumps(identity_to_json(specs64[2]))
    assert identities_from_json_text(text) == [specs64[2]]


def test_malformed_records_rejected(specs64):
    record = identity_to_json(specs64[2])
    broken = dict(record)
    del broken["terms"]
    with pytest.raises(ValueError):
        identity_from_json(broken)

    broken = dict(record)
    broken["terms"] = record["terms"][:1] + record["terms"][2:]  # gap in k
    with pytest.raises(ValueError, match="consecutive k from k0 = 2"):
        identity_from_json(broken)

    # the record lists no r_2 = 1/2, though k0 = 2
    broken = dict(record)
    broken["terms"] = record["terms"][1:]
    with pytest.raises(ValueError, match="consecutive k from k0 = 2"):
        identity_from_json(broken)

    broken = dict(record)
    broken["terms"] = []
    with pytest.raises(ValueError, match="at least one series term"):
        identity_from_json(broken)

    broken = dict(record)
    broken["pole_coefficient"] = "not a rational"
    with pytest.raises(ValueError):
        identity_from_json(broken)


@pytest.mark.parametrize("value", ["1", "-1", 1, {"0": "1"}])
@pytest.mark.parametrize("field", ["q_poly", "k_poly"])
def test_polynomial_fields_must_be_lists(specs64, field, value):
    # a string would be read one character at a time: "1" as the
    # polynomial 1, and "-1" as the rational "-"
    record = json.loads(json.dumps(identity_to_json(specs64[1])))
    (record["closed_form"] if field == "k_poly" else record)[field] = value
    with pytest.raises(ValueError, match=f"^malformed identity record: {field} must be a list"):
        identity_from_json(record)


def test_top_level_shape_rejected():
    with pytest.raises(ValueError):
        identities_from_json_text('"just a string"')


def test_a_spec_holds_p_q_the_closed_form_and_k_max_only(specs64):
    # k0, the pole and both validity bounds follow from these four
    names = tuple(field.name for field in dataclasses.fields(IdentitySpec))
    assert names == ("p", "q_poly", "k_max", "closed_form")
    assert not hasattr(specs64[3], "pole_coefficient")


@pytest.mark.parametrize(
    "field, value, stated, derived",
    [
        ("k0", 5, "5", "4"),
        ("pole_coefficient", "2/1", "2", "1"),
        ("validity_re_gt", "5/1", "5", "-2"),
        ("validity_re_gt", "-3/1", "-3", "-2"),
        ("extended_validity_re_gt", "-100/1", "-100", "-3"),
        ("extended_validity_re_gt", None, "None", "-3"),
    ],
)
def test_each_stated_fact_is_checked_when_read(field, value, stated, derived):
    # one fact of the depth-3 record altered alone; the terms still run
    # from the stated k0, so only the comparison with the spec can refuse it
    spec = derive_identity(3, 12)
    record = identity_to_json(spec)
    record[field] = value
    if field == "k0":
        record["terms"] = record["terms"][1:]
    message = f"depth-3 record states {field} = {stated}, not the derived {derived}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        identity_from_json(record)


def test_an_equal_stated_fact_in_another_spelling_is_read():
    # the stated facts are compared as rationals, not as text
    spec = derive_identity(3, 12)
    record = {**identity_to_json(spec), "pole_coefficient": "2/2", "validity_re_gt": "-2"}
    assert identity_from_json(record) == spec


@pytest.mark.parametrize("p", [*range(1, 65), 127, 128, 255, 256])
def test_k0_and_the_extension_follow_from_the_depth(p):
    spec = derive_identity(p, p + 2)
    odd = p % 2 == 1 and p >= 3
    assert spec.k0 == (p + 1 if odd else p)
    assert spec.validity_re_gt == 1 - p
    assert spec.extended_validity_re_gt == (Fraction(-p) if odd else None)
    assert spec.effective_validity == 1 - spec.k0
    assert identity_from_json(json.loads(json.dumps(identity_to_json(spec)))) == spec


@pytest.mark.parametrize(
    "where, field, value",
    [
        ("record", "p", 3.9),
        ("record", "p", "3"),
        ("record", "p", 3.0),
        ("record", "p", True),
        ("record", "k0", 4.5),
        ("record", "k0", "4"),
        ("term", "k", 4.2),
        ("term", "k", None),
    ],
)
def test_integer_fields_must_be_json_integers(where, field, value):
    # int() would read 3.9 as depth 3 and "3" as 3
    record = identity_to_json(derive_identity(3, 12))
    (record["terms"][0] if where == "term" else record)[field] = value
    message = f"malformed identity record: {field} must be an integer, not {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        identity_from_json(record)


def test_the_reference_tables_transcribed_k0_is_checked(monkeypatch):
    # the transcribed k0 column is compared with where the transcribed
    # closed form starts
    base = reference._SERIES_TABLE[3]
    monkeypatch.setitem(reference._SERIES_TABLE, 3, (5, *base[1:]))
    with pytest.raises(ValueError, match="depth-4 reference table gives k0 = 5, but its closed form starts at k = 4"):
        reference.reference_identity(4)
