"""Canonical text documents for every domain object.

Documents are JSON with sorted keys, two-space indent, and a trailing
newline, so identical objects serialize to identical bytes. All big
integers are decimal strings; rationals are "numerator/denominator" in
lowest terms with positive denominator. No number may have more digits
than the interpreter's int/str conversion limit: reading one is a
ParseError, writing one a CapacityError. Only the documents a command
reads back (instance, decomposition, certificate) have parsers; the
status and report documents are output only. A certificate holds what
the verifier reads: beta, the level ell and v. Parsing is lenient about
non-canonical rationals (plain integers allowed) and ignores unread
keys, but is strict about structure, and locates every error.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Any

from .branching import (
    Claim,
    CertifyStatus,
    CoverageStats,
    InfeasibleCoverageReport,
    IntervalCover,
)
from .decompose import Decomposition, Method
from .diophantine import ApproxResult
from .errors import CapacityError, DomainError, InvariantViolation, ParseError
from .lll import ReductionStats
from .model import Instance

_INT_RE = re.compile(r"-?[0-9]+\Z")
_FRACTION_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?\Z")


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _load(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, f"line {exc.lineno} column {exc.colno}") from None
    except RecursionError:
        raise ParseError("document nests too deeply", "$") from None
    except ValueError as exc:  # an integer literal past the int/str digit limit
        raise ParseError(str(exc), "$") from None


def _object(doc: Any, kind: str) -> dict:
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object", "$")
    if doc.get("kind") != kind:
        raise ParseError(f"expected kind '{kind}', got {doc.get('kind')!r}", "$.kind")
    return doc


def _req(doc: dict, key: str, path: str = "$") -> Any:
    if key not in doc:
        raise ParseError(f"missing field '{key}'", path)
    return doc[key]


def format_int(x: int) -> str:
    try:
        return str(x)
    except ValueError:  # more digits than the interpreter converts
        raise CapacityError(
            f"a {x.bit_length()}-bit number exceeds the int/str digit limit"
        ) from None


def _digits(text: str, path: str) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise ParseError("number exceeds the int/str digit limit", path) from None


def parse_int(value: Any, path: str) -> int:
    if not isinstance(value, str) or not _INT_RE.match(value):
        raise ParseError("expected a decimal integer string", path)
    return _digits(value, path)


def format_fraction(f: Fraction) -> str:
    return f"{format_int(f.numerator)}/{format_int(f.denominator)}"


def parse_fraction(value: Any, path: str) -> Fraction:
    if not isinstance(value, str):
        raise ParseError("expected a rational string", path)
    match = _FRACTION_RE.match(value)
    if not match:
        raise ParseError("expected 'numerator/denominator'", path)
    num = _digits(match.group(1), path)
    den = _digits(match.group(2), path) if match.group(2) is not None else 1
    if den == 0:
        raise ParseError("zero denominator", path)
    return Fraction(num, den)


def _parse_list(value: Any, path: str, parse) -> tuple:
    if not isinstance(value, list):
        raise ParseError("expected an array", path)
    return tuple(parse(x, f"{path}[{i}]") for i, x in enumerate(value))


# -- instance ---------------------------------------------------------------


def serialize_instance(inst: Instance) -> str:
    payload: dict[str, Any] = {
        "kind": "instance",
        "n": inst.n,
        "a": [format_int(x) for x in inst.a],
    }
    if inst.seed is not None:
        payload["seed"] = format_int(inst.seed)
    return _dump(payload)


def parse_instance(text: str) -> tuple[Instance, int]:
    """Parse an instance document; returns (instance, g).

    g is the gcd of the document's weights, and the instance holds them
    divided by g: a right-hand side beta of the document is beta / g of
    the instance, and infeasible when g does not divide it.
    """
    doc = _object(_load(text), "instance")
    n = _req(doc, "n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError("n must be a positive JSON integer", "$.n")
    weights = _parse_list(_req(doc, "a"), "$.a", parse_int)
    if len(weights) != n:
        raise ParseError(f"expected {n} weights, got {len(weights)}", "$.a")
    if any(x < 1 for x in weights):
        raise ParseError("weights must be >= 1", "$.a")
    seed = parse_int(doc["seed"], "$.seed") if "seed" in doc else None
    divisor = math.gcd(*weights)
    return Instance(a=tuple(x // divisor for x in weights), seed=seed), divisor


# -- decomposition ----------------------------------------------------------


def serialize_decomposition(dec: Decomposition) -> str:
    if isinstance(dec.provenance, ApproxResult):
        provenance: dict[str, Any] = {
            "type": "dioph_approx",
            "q": format_int(dec.provenance.q),
            "precision": format_int(dec.provenance.precision),
            "err_inf": format_fraction(dec.provenance.err_inf),
        }
    else:
        provenance = {
            "type": "lattice_reduction",
            "dim": dec.provenance.dim,
            "swaps": dec.provenance.swaps,
            "size_reductions": dec.provenance.size_reductions,
        }
    payload = {
        "kind": "decomposition",
        "method": dec.method.value,
        "v": [format_int(x) for x in dec.v],
        "lambda": format_fraction(dec.scale),
        "r": [format_fraction(x) for x in dec.residual],
        "provenance": provenance,
    }
    return _dump(payload)


# the document key of each Decomposition field
_DECOMPOSITION_KEYS = {"v": "v", "scale": "lambda", "residual": "r"}


def parse_decomposition(text: str) -> Decomposition:
    doc = _object(_load(text), "decomposition")
    method_value = _req(doc, "method")
    try:
        method = Method(method_value)
    except ValueError:
        raise ParseError(f"unknown method {method_value!r}", "$.method") from None
    v = _parse_list(_req(doc, "v"), "$.v", parse_int)
    scale = parse_fraction(_req(doc, "lambda"), "$.lambda")
    residual = _parse_list(_req(doc, "r"), "$.r", parse_fraction)
    raw_prov = _req(doc, "provenance")
    if not isinstance(raw_prov, dict):
        raise ParseError("expected an object", "$.provenance")
    prov_type = raw_prov.get("type")
    try:
        if prov_type == "dioph_approx":
            provenance: ApproxResult | ReductionStats = ApproxResult(
                q=parse_int(_req(raw_prov, "q", "$.provenance"), "$.provenance.q"),
                v=v,
                precision=parse_int(
                    _req(raw_prov, "precision", "$.provenance"),
                    "$.provenance.precision",
                ),
                err_inf=parse_fraction(
                    _req(raw_prov, "err_inf", "$.provenance"), "$.provenance.err_inf"
                ),
            )
        elif prov_type == "lattice_reduction":
            provenance = ReductionStats(
                dim=_parse_count(raw_prov, "dim"),
                swaps=_parse_count(raw_prov, "swaps"),
                size_reductions=_parse_count(raw_prov, "size_reductions"),
            )
            if provenance.dim != len(v):
                raise ParseError(
                    f"dim {provenance.dim} differs from the {len(v)} entries of v",
                    "$.provenance.dim",
                )
        else:
            raise ParseError(f"unknown provenance type {prov_type!r}", "$.provenance.type")
        dec = Decomposition(v=v, scale=scale, residual=residual, provenance=provenance)
    except DomainError as exc:
        path = "$" if exc.field is None else f"$.{_DECOMPOSITION_KEYS[exc.field]}"
        if exc.index is not None:
            path += f"[{exc.index}]"
        raise ParseError(str(exc), path) from None
    except InvariantViolation as exc:  # raised by the provenance's own checks
        raise ParseError(str(exc), "$.provenance") from None
    if dec.method is not method:
        raise ParseError(f"method {method.value} needs its own provenance", "$.method")
    return dec


def _parse_count(raw_prov: dict, key: str) -> int:
    value = _req(raw_prov, key, "$.provenance")
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ParseError(
            f"{key} must be a nonnegative JSON integer", f"$.provenance.{key}"
        )
    return value


# -- certificate ------------------------------------------------------------


def serialize_certificate(claim: Claim, v: tuple[int, ...]) -> str:
    return _dump({
        "kind": "certificate",
        "beta": format_int(claim.beta),
        "ell": format_int(claim.level),
        "v": [format_int(x) for x in v],
    })


def parse_certificate(text: str) -> tuple[Claim, tuple[int, ...]]:
    doc = _object(_load(text), "certificate")
    claim = Claim(
        beta=parse_int(_req(doc, "beta"), "$.beta"),
        level=parse_int(_req(doc, "ell"), "$.ell"),
    )
    return claim, _parse_list(_req(doc, "v"), "$.v", parse_int)


def serialize_certify_status(status: CertifyStatus, beta: int) -> str:
    return _dump(
        {"kind": "certify_status", "status": status.value, "beta": format_int(beta)}
    )


# -- interval cover ---------------------------------------------------------


def _format_interval(pair: tuple[Fraction, Fraction]) -> list[str]:
    return [format_fraction(pair[0]), format_fraction(pair[1])]


def serialize_interval_cover(cover: IntervalCover) -> str:
    payload = {
        "kind": "interval_cover",
        "k_lo": format_int(cover.k_lo),
        "k_hi": format_int(cover.k_hi),
        "bad": [_format_interval(p) for p in cover.bad],
        "good": [_format_interval(p) for p in cover.good],
        "min_good_length": None
        if cover.min_good_length is None
        else format_fraction(cover.min_good_length),
        "good_length_bound": format_fraction(cover.good_length_bound),
        "good_length_bound_holds": cover.good_length_bound_holds,
    }
    return _dump(payload)


# -- coverage statistics ----------------------------------------------------


def serialize_coverage_stats(stats: CoverageStats) -> str:
    payload: dict[str, Any] = {
        "kind": "coverage_stats",
        "mode": stats.mode,
        "g": format_int(stats.g),
        "b": format_int(stats.b),
        "bad_fraction": format_fraction(stats.bad_fraction),
        "bad_fraction_bound": format_fraction(stats.bad_fraction_bound),
        "two_pow_n_bound": format_fraction(stats.two_pow_n_bound),
    }
    if stats.sample_size is not None:
        payload["sample_size"] = stats.sample_size
    if stats.seed is not None:
        payload["seed"] = format_int(stats.seed)
    return _dump(payload)


# -- infeasible coverage report ---------------------------------------------


def serialize_infeasible_coverage(report: InfeasibleCoverageReport) -> str:
    return _dump({
        "kind": "infeasible_coverage",
        "total": format_int(report.total),
        "certified": format_int(report.certified),
        "lower": format_fraction(report.lower),
        "upper": None if report.upper is None else format_fraction(report.upper),
        "target": format_fraction(report.target),
        "verdict": report.verdict,
    })


def document_kind(text: str) -> str:
    doc = _load(text)
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("document must be a JSON object with a 'kind'", "$")
    return str(doc["kind"])
