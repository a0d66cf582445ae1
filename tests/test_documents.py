import json
import sys
import time
from fractions import Fraction

import pytest

from sscert import documents
from sscert.branching import CertifyStatus, certify, coverage_stats, enumerate_intervals
from sscert.decompose import (
    Decomposition,
    Method,
    decompose_frank_tardos,
    decompose_lll_rows,
)
from sscert.errors import CapacityError, ParseError
from sscert.lll import ReductionStats
from sscert.model import Instance, generate_instance
from sscert.oracle import infeasible_coverage_report

TOY = Instance(a=(100, 101, 102), seed=7)
TOY_SCALE = Fraction(101)
TOY_RESIDUAL = (Fraction(-1), Fraction(0), Fraction(1))

# a reduction decomposition of TOY in the format that still carried
# "bounds" and "warnings" arrays; the parser ignores keys it does not read
WARNINGS_KEY_DOCUMENT = """{
  "bounds": [],
  "kind": "decomposition",
  "lambda": "101/1",
  "method": "lll_rows",
  "provenance": {
    "dim": 3,
    "size_reductions": 5,
    "swaps": 4,
    "type": "lattice_reduction"
  },
  "r": [
    "-1/1",
    "0/1",
    "1/1"
  ],
  "v": [
    "1",
    "1",
    "1"
  ],
  "warnings": []
}
"""


def roundtrip_canonical(serialize, parse, obj):
    text = serialize(obj)
    back = parse(text)
    assert back == obj
    assert serialize(back) == text
    return text


class TestRationals:
    def test_canonical_form(self):
        assert documents.format_fraction(Fraction(-3, 6)) == "-1/2"
        assert documents.format_fraction(Fraction(5)) == "5/1"

    def test_lenient_parse(self):
        assert documents.parse_fraction("-3/6", "$") == Fraction(-1, 2)
        assert documents.parse_fraction("7", "$") == Fraction(7)

    def test_zero_denominator(self):
        with pytest.raises(ParseError) as err:
            documents.parse_fraction("3/0", "$.x")
        assert "$.x" in str(err.value)

    def test_negative_denominator_rejected(self):
        with pytest.raises(ParseError):
            documents.parse_fraction("3/-2", "$")


class TestInstanceDocs:
    def test_roundtrip(self):
        text = documents.serialize_instance(TOY)
        parsed, divisor = documents.parse_instance(text)
        assert parsed == TOY and divisor == 1
        assert documents.serialize_instance(parsed) == text

    def test_gcd_divided_out(self):
        # the document of 2a parses as the instance of a, with divisor 2
        doc = json.loads(documents.serialize_instance(TOY))
        doc["a"] = [str(2 * x) for x in TOY.a]
        assert documents.parse_instance(json.dumps(doc)) == (TOY, 2)

    def test_count_disagreeing_with_weights_rejected_with_position(self):
        doc = json.loads(documents.serialize_instance(TOY))
        doc["a"] = doc["a"][:2]
        with pytest.raises(ParseError) as err:
            documents.parse_instance(json.dumps(doc))
        assert "expected 3 weights, got 2" in str(err.value)
        assert "$.a" in str(err.value)

    def test_malformed_json_position(self):
        with pytest.raises(ParseError) as err:
            documents.parse_instance('{"kind": "instance", "n": }')
        assert "line 1" in str(err.value)

    def test_wrong_kind(self):
        with pytest.raises(ParseError):
            documents.parse_instance('{"kind": "certificate"}')

    def test_non_ascii_weight_digits_rejected(self):
        # "\u0661\u0660\u0661" is 101 in Arabic-Indic digits; int() would accept it
        text = documents.serialize_instance(TOY)
        forged = text.replace('"101"', '"\u0661\u0660\u0661"')
        assert forged != text
        with pytest.raises(ParseError):
            documents.parse_instance(forged)

    def test_seed_optional(self):
        inst = Instance(a=(2, 3))
        text = documents.serialize_instance(inst)
        assert "seed" not in text
        assert documents.parse_instance(text)[0] == inst


class TestDecompositionDocs:
    def test_roundtrip_frank_tardos(self):
        dec = decompose_frank_tardos(generate_instance(10, 42))
        roundtrip_canonical(
            documents.serialize_decomposition, documents.parse_decomposition, dec
        )

    def test_tampered_invariant_fails(self):
        dec = decompose_frank_tardos(generate_instance(10, 42))
        text = documents.serialize_decomposition(dec)
        tampered = text.replace('"q": "', '"q": "-')
        with pytest.raises(ParseError):
            documents.parse_decomposition(tampered)

    def test_roundtrip_reduction_within_digit_limit(self):
        dec = decompose_lll_rows(generate_instance(10, 42))
        limit = sys.get_int_max_str_digits()
        text = roundtrip_canonical(
            documents.serialize_decomposition, documents.parse_decomposition, dec
        )
        assert "bounds" not in json.loads(text)
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("decompose", [decompose_frank_tardos, decompose_lll_rows])
    def test_parsed_bounds_equal_computed(self, decompose):
        dec = decompose(generate_instance(10, 1))
        parsed = documents.parse_decomposition(documents.serialize_decomposition(dec))
        assert parsed.bounds == dec.bounds
        assert len(dec.bounds) == 3

    def test_forged_bounds_are_not_read(self):
        # a = v = (2000001, 2000003), scale 1: far below the reduction's
        # scale bound, whatever a document claims
        doc = json.loads(documents.serialize_decomposition(Decomposition(
            v=(2000001, 2000003),
            scale=Fraction(1),
            residual=(Fraction(0), Fraction(0)),
            method=Method.LLL_ROWS,
            provenance=ReductionStats(dim=2, swaps=0, size_reductions=0),
        )))
        doc["bounds"] = [
            {"name": name, "relation": "<=", "holds": True, "lhs": "0/1",
             "rhs": "1/1", "note": ""}
            for name in ("direction_residual_norm", "scale_lower", "residual_ratio")
        ]
        parsed = documents.parse_decomposition(json.dumps(doc))
        assert {b.name: b.holds for b in parsed.bounds}["scale_lower"] is False

    def test_warnings_key_is_ignored(self):
        dec = documents.parse_decomposition(WARNINGS_KEY_DOCUMENT)
        assert dec == Decomposition(
            v=(1, 1, 1),
            scale=TOY_SCALE,
            residual=TOY_RESIDUAL,
            method=Method.LLL_ROWS,
            provenance=ReductionStats(dim=3, swaps=4, size_reductions=5),
        )
        expected = json.loads(WARNINGS_KEY_DOCUMENT)
        del expected["bounds"], expected["warnings"]
        assert json.loads(documents.serialize_decomposition(dec)) == expected

    def test_negative_direction_entry_rejected(self):
        doc = json.loads(WARNINGS_KEY_DOCUMENT)
        doc["v"][1] = "-1"
        with pytest.raises(ParseError, match="nonnegative"):
            documents.parse_decomposition(json.dumps(doc))

    def test_empty_direction_rejected(self):
        # an empty v is all zero: a document error, not an internal one
        doc = json.loads(WARNINGS_KEY_DOCUMENT)
        doc["v"], doc["r"], doc["provenance"]["dim"] = [], [], 0
        with pytest.raises(ParseError, match="nonzero"):
            documents.parse_decomposition(json.dumps(doc))

    def test_long_direction_with_huge_precision_parses_quickly(self):
        # the bound on q grows as 2^(n(n+1)) N^(4n) in the document's n and N:
        # 2,000 entries and a 4,000-digit N make it about 110 million bits
        doc = json.loads(
            documents.serialize_decomposition(decompose_frank_tardos(generate_instance(10, 1)))
        )
        doc.update(v=["1"] * 2000, r=["0"] * 2000)
        doc["provenance"].update(q="1", precision="9" * 4000, err_inf="0")
        start = time.perf_counter()
        dec = documents.parse_decomposition(json.dumps(doc))
        assert time.perf_counter() - start < 5
        assert len(dec.v) == 2000 and dec.provenance.q == 1


class TestReductionProvenance:
    def text(self, **fields):
        dec = Decomposition(
            v=(1, 1, 1),
            scale=TOY_SCALE,
            residual=TOY_RESIDUAL,
            method=Method.LLL_ROWS,
            provenance=ReductionStats(dim=3, swaps=4, size_reductions=5),
        )
        doc = json.loads(documents.serialize_decomposition(dec))
        doc["provenance"].update(fields)
        return json.dumps(doc)

    def test_counts_roundtrip(self):
        dec = documents.parse_decomposition(self.text())
        assert dec.provenance == ReductionStats(dim=3, swaps=4, size_reductions=5)

    @pytest.mark.parametrize("key", ["dim", "swaps", "size_reductions"])
    @pytest.mark.parametrize("value", ["x", "3", None, [1], 1.5, True, False, -1])
    def test_count_must_be_nonnegative_json_integer(self, key, value):
        with pytest.raises(ParseError) as err:
            documents.parse_decomposition(self.text(**{key: value}))
        assert f"$.provenance.{key}" in str(err.value)

    @pytest.mark.parametrize("dim", [0, 2, 4])
    def test_dim_must_match_direction(self, dim):
        with pytest.raises(ParseError) as err:
            documents.parse_decomposition(self.text(dim=dim))
        assert "$.provenance.dim" in str(err.value)


class TestDigitLimit:
    # no conversion lifts the interpreter's int/str digit limit
    @pytest.fixture(autouse=True)
    def limit_unchanged(self):
        limit = sys.get_int_max_str_digits()
        yield
        assert sys.get_int_max_str_digits() == limit

    def test_huge_weight_is_a_parse_error(self):
        text = json.dumps({"kind": "instance", "n": 2, "a": ["1" * 10**6, "3"]})
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            documents.parse_instance(text)
        assert time.perf_counter() - start < 1
        assert "$.a[0]" in str(err.value)

    def test_huge_rational_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            documents.parse_fraction("1/" + "7" * 5000, "$.lambda")
        assert "$.lambda" in str(err.value)

    def test_huge_number_is_a_capacity_error(self):
        with pytest.raises(CapacityError):
            documents.format_int(10**5000)
        with pytest.raises(CapacityError):
            documents.format_fraction(Fraction(1, 10**5000))


class TestCertificateDocs:
    def test_roundtrip(self):
        cert = certify(TOY.a, (1, 1, 1), 150).certificate
        text = documents.serialize_certificate(cert, (1, 1, 1))
        back, v = documents.parse_certificate(text)
        assert back == cert and v == (1, 1, 1)
        assert documents.serialize_certificate(back, v) == text

    def test_non_ascii_rational_digits_rejected(self):
        cert = certify(TOY.a, (1, 1, 1), 150).certificate
        text = documents.serialize_certificate(cert, (1, 1, 1))
        assert '"vmin": "149/101"' in text
        forged = text.replace('"vmin": "149/101"', '"vmin": "\u0661\u0664\u0669/101"')
        with pytest.raises(ParseError):
            documents.parse_certificate(forged)

    def test_unordered_bounds_rejected(self):
        cert = certify(TOY.a, (1, 1, 1), 150).certificate
        text = documents.serialize_certificate(cert, (1, 1, 1))
        broken = text.replace('"ell": "1"', '"ell": "2"')
        with pytest.raises(ParseError):
            documents.parse_certificate(broken)

    def test_status_roundtrip(self):
        text = documents.serialize_certify_status(CertifyStatus.NO_CERTIFICATE, 101)
        assert json.loads(text) == {
            "kind": "certify_status", "status": "no_certificate", "beta": "101",
        }


class TestReportDocs:
    # report documents are output only: checked field by field as JSON
    def test_interval_cover_roundtrip(self):
        cover = enumerate_intervals(TOY.a, (1, 1, 1), TOY_SCALE, TOY_RESIDUAL)
        assert json.loads(documents.serialize_interval_cover(cover)) == {
            "kind": "interval_cover",
            "k_lo": "0",
            "k_hi": "3",
            "bad": [["0/1", "0/1"], ["100/1", "102/1"], ["201/1", "203/1"],
                    ["303/1", "303/1"]],
            "good": [["0/1", "100/1"], ["102/1", "201/1"], ["203/1", "303/1"]],
            "min_good_length": "99/1",
            "good_length_bound": "99/1",
            "good_length_bound_holds": True,
        }

    def test_coverage_roundtrip_both_modes(self):
        exact = coverage_stats(TOY.a, (1, 1, 1), TOY_SCALE, TOY_RESIDUAL, "exact")
        assert json.loads(documents.serialize_coverage_stats(exact)) == {
            "kind": "coverage_stats",
            "mode": "exact",
            "g": "296",
            "b": "8",
            "bad_fraction": "1/38",
            "bad_fraction_bound": "6/101",
            "two_pow_n_bound": "1/8",
        }
        sampled = coverage_stats(
            TOY.a, (1, 1, 1), TOY_SCALE, TOY_RESIDUAL, "sampled",
            sample_size=50, seed=3,
        )
        assert sampled.g + sampled.b == 50
        assert json.loads(documents.serialize_coverage_stats(sampled)) == {
            "kind": "coverage_stats",
            "mode": "sampled",
            "g": str(sampled.g),
            "b": str(sampled.b),
            "bad_fraction": documents.format_fraction(Fraction(sampled.b, 50)),
            "bad_fraction_bound": "6/101",
            "two_pow_n_bound": "1/8",
            "sample_size": 50,
            "seed": "3",
        }

    def test_infeasible_coverage_roundtrip(self):
        report = infeasible_coverage_report(TOY.a, (1, 1, 1), "exact")
        assert json.loads(documents.serialize_infeasible_coverage(report)) == {
            "kind": "infeasible_coverage",
            "mode": "exact",
            "infeasible": "296",
            "certified_infeasible": "296",
            "fraction": "1/1",
            "bound": "7/8",
        }

    def test_document_kind(self):
        assert documents.document_kind(documents.serialize_instance(TOY)) == "instance"
