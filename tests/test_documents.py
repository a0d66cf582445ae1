import hashlib
import json
import sys
import time
from fractions import Fraction

import pytest

from sscert import documents
from sscert.branching import (
    Claim,
    CertifyStatus,
    certify,
    coverage_stats,
    enumerate_intervals,
    verify_certificate,
)
from sscert.decompose import (
    Decomposition,
    decompose_frank_tardos,
    decompose_lll_rows,
)
from sscert.errors import CapacityError, ParseError
from sscert.lll import ReductionStats
from sscert.model import Instance, generate_instance

TOY = Instance(a=(100, 101, 102), seed=7)
TOY_SCALE = Fraction(101)
TOY_RESIDUAL = (Fraction(-1), Fraction(0), Fraction(1))
# certified on generate_instance(10, 1) by both methods' directions
PIPELINE_BETA = 6210704809787412867635402647213653485620103494156017967728800

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


def older_format(dec):
    """The document of a Frank-Tardos dec as written before the approximation was derived."""
    doc = json.loads(documents.serialize_decomposition(dec))
    approx = dec.provenance
    doc["provenance"] = {
        "type": "dioph_approx",
        "q": str(approx.q),
        "precision": str(approx.precision),
        "err_inf": f"{approx.err_inf.numerator}/{approx.err_inf.denominator}",
    }
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


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

    def test_n_past_the_limit_is_refused_before_the_weights(self):
        # n = 33 is a capacity error even when no weight would parse
        doc = {"kind": "instance", "n": 33, "a": ["x"] * 33}
        with pytest.raises(CapacityError, match="n 33 exceeds the limit 32"):
            documents.parse_instance(json.dumps(doc))
        # and a count other than n is refused before any weight is converted
        doc = {"kind": "instance", "n": 2, "a": ["x"] * 10**5}
        with pytest.raises(ParseError, match="expected 2 weights, got 100000"):
            documents.parse_instance(json.dumps(doc))

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
        # the parsed approximation is the one decompose computed, q, the
        # precision and err_inf included, though the document stores none
        for n, seed in [(10, 42)] + [(n, s) for n in (10, 12, 14, 16) for s in (1, 2, 3)]:
            dec = decompose_frank_tardos(generate_instance(n, seed))
            text = roundtrip_canonical(
                documents.serialize_decomposition, documents.parse_decomposition, dec
            )
            assert set(json.loads(text)) == {"kind", "method", "v", "lambda", "r"}

    def test_older_frank_tardos_document_is_read(self):
        # the format that stored q, the precision and err_inf reads as the
        # same decomposition, its provenance ignored like every unread key;
        # the digest is the one that format had for n=10, seed 1
        dec = decompose_frank_tardos(generate_instance(10, 1))
        text = older_format(dec)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "fbf345d6dabc99cdbd20c53148aca711fc0adf517accaff8bccd3ac155d44aec"
        )
        parsed = documents.parse_decomposition(text)
        assert parsed == dec
        assert documents.serialize_decomposition(parsed) == documents.serialize_decomposition(dec)

    def test_tampered_invariant_fails(self):
        # v_j + 1 and r_j - lambda leave a = lambda v + r and q as they were,
        # but make err_inf = max |r_i| / lambda about 1, above 1/N
        dec = decompose_frank_tardos(generate_instance(10, 42))
        doc = json.loads(documents.serialize_decomposition(dec))
        j = min(range(10), key=lambda i: dec.v[i])
        doc["v"][j] = str(dec.v[j] + 1)
        doc["r"][j] = documents.format_fraction(dec.residual[j] - dec.scale)
        with pytest.raises(ParseError, match=r"exceeds 1/N \(at \$\.v\)"):
            documents.parse_decomposition(json.dumps(doc))

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
        assert len(dec.bounds) == (3 if decompose is decompose_frank_tardos else 0)

    def test_forged_bounds_are_not_read(self):
        # a document's "bounds" key, however it reads, is ignored: the
        # parsed checks are recomputed from v, scale and residual
        dec = decompose_frank_tardos(generate_instance(10, 1))
        doc = json.loads(documents.serialize_decomposition(dec))
        doc["bounds"] = [
            {"name": name, "relation": "<=", "holds": False, "lhs": "1/1",
             "rhs": "0/1", "note": ""}
            for name in ("direction_l1", "residual_ratio", "scale_lower")
        ]
        parsed = documents.parse_decomposition(json.dumps(doc))
        assert parsed.bounds == dec.bounds
        assert len(parsed.bounds) == 3 and all(b.holds for b in parsed.bounds)

    def test_warnings_key_is_ignored(self):
        dec = documents.parse_decomposition(WARNINGS_KEY_DOCUMENT)
        assert dec == Decomposition(
            v=(1, 1, 1),
            scale=TOY_SCALE,
            residual=TOY_RESIDUAL,
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
        # a Frank-Tardos direction has 10 to 16 entries, so 2,000 entries are
        # refused before any bound in n is computed, and the 4,000-digit
        # precision an older document might state is not read
        doc = json.loads(
            documents.serialize_decomposition(decompose_frank_tardos(generate_instance(10, 1)))
        )
        doc.update(v=["1"] * 2000, r=["0"] * 2000)
        doc["provenance"] = {
            "type": "dioph_approx", "q": "1", "precision": "9" * 4000, "err_inf": "0",
        }
        start = time.perf_counter()
        with pytest.raises(ParseError) as info:
            documents.parse_decomposition(json.dumps(doc))
        assert time.perf_counter() - start < 5
        assert info.value.location == "$.v"
        assert "10 to 16 entries" in str(info.value)

    def test_nine_entry_direction_refused(self):
        # the Frank-Tardos window's floor, as decompose_frank_tardos keeps it
        doc = json.loads(
            documents.serialize_decomposition(decompose_frank_tardos(generate_instance(10, 1)))
        )
        doc.update(v=doc["v"][:9], r=doc["r"][:9])
        with pytest.raises(ParseError) as info:
            documents.parse_decomposition(json.dumps(doc))
        assert info.value.location == "$.v"
        assert "10 to 16 entries" in str(info.value)

    def test_non_ascii_rational_digits_rejected(self):
        # "\u0661\u0660\u0661" is 101 in Arabic-Indic digits; int() would accept it
        text = documents.serialize_decomposition(documents.parse_decomposition(
            WARNINGS_KEY_DOCUMENT
        ))
        for canonical in ('"101/1"', '"-1/1"'):
            assert canonical in text
            forged = text.replace(canonical, canonical.replace("1", "\u0661"))
            assert forged != text
            with pytest.raises(ParseError, match="numerator/denominator"):
                documents.parse_decomposition(forged)

    def test_residual_denominators_must_divide_the_scale(self):
        # r = a - scale * v for an integer a has the scale's denominator
        # as a common one; 20,000 entries of 1/(10^30 + odd) would make
        # the sum of |r_i| quadratic in the document's size (840 KB)
        doc = json.loads(WARNINGS_KEY_DOCUMENT)
        k = 20000
        doc.update(
            v=["1"] * k, r=[f"1/{10**30 + 2 * i + 1}" for i in range(k)],
            **{"lambda": str(10**40)},
        )
        doc["provenance"]["dim"] = k
        text = json.dumps(doc)
        start = time.perf_counter()
        with pytest.raises(ParseError, match="denominators"):
            documents.parse_decomposition(text)
        assert time.perf_counter() - start < 1
        # the same denominators are read once the scale's has them all
        doc.update(v=["1"] * 3, r=["1/3", "-1/5", "1/15"], **{"lambda": "101/15"})
        doc["provenance"]["dim"] = 3
        assert documents.parse_decomposition(json.dumps(doc)).scale == Fraction(101, 15)
        doc["r"][2] = "1/7"
        with pytest.raises(ParseError, match="denominators"):
            documents.parse_decomposition(json.dumps(doc))

    @pytest.mark.parametrize("decompose, relabel", [
        (decompose_frank_tardos, "lll_rows"),
        (decompose_lll_rows, "frank_tardos"),
    ])
    def test_method_must_match_provenance(self, decompose, relabel):
        # a relabelled document would have the other method's bounds checked:
        # lll_rows needs its counters, and a projection's scale is not the
        # max(a) / q of a Frank-Tardos approximation
        doc = json.loads(documents.serialize_decomposition(decompose(generate_instance(10, 1))))
        documents.parse_decomposition(json.dumps(doc))
        doc["method"] = relabel
        expected = {"lll_rows": "missing field 'provenance'", "frank_tardos": r"max\(a\) / q"}
        with pytest.raises(ParseError, match=expected[relabel]):
            documents.parse_decomposition(json.dumps(doc))


    @pytest.mark.parametrize("change, path", [
        ({"lambda": "0"}, "$.lambda"),
        ({"lambda": "-101/1"}, "$.lambda"),
        ({"r": ["-1/1", "0/1", "1/7"]}, "$.r[2]"),
        ({"r": ["-60/1", "0/1", "60/1"]}, "$.r"),
        ({"method": "frank_tardos"}, "$.v"),
        ({"v": ["1", "-1", "1"]}, "$.v[1]"),
        ({"v": ["0", "0", "0"]}, "$.v"),
        # 11 entries against 12: derived from the first 11 pairs, max(a)
        # would be 102 at q = 1, and the scale 101 would be refused
        ({"method": "frank_tardos", "v": ["1"] * 11, "r": ["1/1"] + ["0/1"] * 11}, "$.v"),
    ], ids=["zero_lambda", "negative_lambda", "foreign_denominator", "residual_norm",
            "method_mismatch", "negative_v", "zero_v", "short_v"])
    def test_invariant_error_is_located(self, change, path):
        doc = json.loads(WARNINGS_KEY_DOCUMENT)
        doc.update(change)
        with pytest.raises(ParseError) as info:
            documents.parse_decomposition(json.dumps(doc))
        assert info.value.location == path


class TestReductionProvenance:
    def text(self, **fields):
        dec = Decomposition(
            v=(1, 1, 1),
            scale=TOY_SCALE,
            residual=TOY_RESIDUAL,
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


# a certificate of TOY at beta = 150 in the format that still carried the
# LP values and vertices; the parser ignores keys it does not read
OLD_CERTIFICATE_DOCUMENT = {
    "kind": "certificate",
    "beta": "150",
    "ell": "1",
    "vmin": "149/101",
    "vmax": "151/101",
    "arg_min": ["0/1", "48/101", "1/1"],
    "arg_max": ["1/1", "50/101", "0/1"],
    "v": ["1", "1", "1"],
}


class TestCertificateDocs:
    def test_roundtrip(self):
        cert = certify(TOY.a, (1, 1, 1), 150).certificate
        text = documents.serialize_certificate(cert, (1, 1, 1))
        assert documents.parse_certificate(text) == (Claim(150, 1), (1, 1, 1))
        assert documents.serialize_certificate(*documents.parse_certificate(text)) == text

    @pytest.mark.parametrize("decompose", [decompose_frank_tardos, decompose_lll_rows])
    def test_holds_only_what_verify_reads(self, decompose):
        inst = generate_instance(10, 1)
        dec = decompose(inst)
        result = certify(inst.a, dec.v, PIPELINE_BETA)
        assert result.status is CertifyStatus.CERTIFIED
        text = documents.serialize_certificate(result.certificate, dec.v)
        assert set(json.loads(text)) == {"kind", "beta", "ell", "v"}
        if decompose is decompose_frank_tardos:
            assert len(text.encode()) <= 800
        claim, v = documents.parse_certificate(text)
        assert type(claim) is Claim and v == dec.v
        assert documents.serialize_certificate(claim, v) == text

    def test_old_format_is_read_as_its_beta_ell_and_v(self):
        # the LP values and vertices may be stale or malformed: only beta,
        # ell and v are read, so the verdict is theirs
        old = dict(OLD_CERTIFICATE_DOCUMENT)
        claim, v = documents.parse_certificate(json.dumps(old))
        assert (claim, v) == (Claim(150, 1), (1, 1, 1))
        assert verify_certificate(TOY.a, v, claim) is True
        stale = [
            {"vmin": "151/101", "vmax": "149/101"},
            {"vmin": "x", "arg_max": None},
            {"arg_min": ["1/1"], "arg_max": ["2/1", "0/1", "0/1"]},
            {"vmin": "\u0661\u0664\u0669/101", "vmax": "1/0"},
        ]
        for fields in stale:
            for beta, ell in ((150, 1), (102, 1), (201, 1), (150, 0), (150, 2), (160, 1)):
                doc = dict(old, **fields, beta=str(beta), ell=str(ell))
                assert documents.parse_certificate(json.dumps(doc)) == (
                    Claim(beta, ell), (1, 1, 1)
                )
                # (max(a, 1), min(a, 2)) = (102, 201): 150 and 160 lie inside
                accepted = verify_certificate(TOY.a, (1, 1, 1), Claim(beta, ell))
                assert accepted is (ell == 1 and 102 < beta < 201), (fields, beta, ell)

    def test_status_roundtrip(self):
        text = documents.serialize_certify_status(CertifyStatus.NO_CERTIFICATE, 101)
        assert json.loads(text) == {
            "kind": "certify_status", "status": "no_certificate", "beta": "101",
        }


class TestReportDocs:
    # report documents are output only: checked field by field as JSON
    def test_interval_cover_roundtrip(self):
        cover = enumerate_intervals(TOY.a, (1, 1, 1))
        assert json.loads(documents.serialize_interval_cover(cover)) == {
            "kind": "interval_cover",
            "k_lo": "0",
            "k_hi": "3",
            "bad": [["0/1", "0/1"], ["100/1", "102/1"], ["201/1", "203/1"],
                    ["303/1", "303/1"]],
            "good": [["0/1", "100/1"], ["102/1", "201/1"], ["203/1", "303/1"]],
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
            "certified_share_upper": "1/1",
            "corollary_1": "holds",
            "min_good_length": "99/1",
            "good_length_bound": "99/1",
            "good_length_bound_holds": True,
        }
        # no command writes a sampled report, so it has no document: its
        # fields are the ones that the sampled mode's caller reads
        sampled = coverage_stats(
            TOY.a, (1, 1, 1), TOY_SCALE, TOY_RESIDUAL, "sampled",
            sample_size=50, seed=3,
        )
        assert sampled.g + sampled.b == 50
        assert (sampled.mode, sampled.sample_size, sampled.seed) == ("sampled", 50, 3)
        assert sampled.bad_fraction == Fraction(sampled.b, 50)
        assert (sampled.bad_fraction_bound, sampled.two_pow_n_bound) == (
            Fraction(6, 101), Fraction(1, 8))
        assert sampled.corollary_1 is None and sampled.min_good_length is None

    def test_infeasible_coverage_roundtrip(self):
        # Corollary 1's figures in the exact stats document: total g + b,
        # lower end 1 - bad_fraction, target 1 - two_pow_n_bound
        exact = coverage_stats(TOY.a, (1, 1, 1), TOY_SCALE, TOY_RESIDUAL, "exact")
        doc = json.loads(documents.serialize_coverage_stats(exact))
        assert (doc["g"], doc["b"]) == ("296", "8")
        assert 1 - Fraction(doc["bad_fraction"]) == Fraction(37, 38)
        assert doc["certified_share_upper"] == "1/1"
        assert 1 - Fraction(doc["two_pow_n_bound"]) == Fraction(7, 8)
        assert doc["corollary_1"] == "holds"
        # at most 2^n right-hand sides are feasible: no upper end for total <= 2^n
        unbounded = coverage_stats((1, 1), (1, 1), Fraction(1), (Fraction(0),) * 2, "exact")
        doc = json.loads(documents.serialize_coverage_stats(unbounded))
        assert int(doc["g"]) + int(doc["b"]) == 3
        assert (doc["certified_share_upper"], doc["corollary_1"]) == (None, "undecided")

    def test_document_kind(self):
        assert documents.document_kind(documents.serialize_instance(TOY)) == "instance"
