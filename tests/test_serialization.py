import json

import pytest

from zetaident.derive import (
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
        pytest.param(
            5, r"depth-3 identity has k0 = 5, but its closed form gives r_4 = -1/6, not 0",
            id="5",
        ),
        # r_1 = -1/6 is nonzero, but the series of depth 3 starts at k >= 3
        pytest.param(1, r"depth-3 identity has k0 = 1 < p", id="1"),
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
    with pytest.raises(ValueError, match=r"depth-3 identity has pole coefficient 2, not 1"):
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
