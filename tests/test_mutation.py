"""Mutation tests: perturbed certificate, instance and decomposition documents.

A certificate document holds beta, ell and v, and nothing else decides
its verdict: ``verify_certificate`` accepts a perturbed (beta', ell', v')
exactly when ``certify(a, v', beta')`` certifies at level ell'. A
mutated instance document must make ``certify`` and ``verify`` exit with
a verdict or a refusal, never an internal error, and quickly, and so
must it make ``decompose``, ``stats`` and ``intervals``; so must a
mutated decomposition document make ``certify``, ``stats`` and
``intervals``. The certificates and every perturbation are drawn by
SplitMix64 loops, so every run checks the same cases.
"""

import json
import math
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest

from oracles import lp_ineq_greedy
from sscert import documents
from sscert.branching import CertifyStatus, certify, verify_certificate
from sscert.cli import main
from sscert.decompose import decompose_frank_tardos, decompose_lll_rows
from sscert.errors import DomainError, ParseError
from sscert.model import generate_instance
from sscert.rng import SplitMix64

CERTIFICATES = 50
CLI_CERTIFICATES = 4
PIPELINES = {"ft10": (decompose_frank_tardos, 10), "rows20": (decompose_lll_rows, 20)}


@lru_cache(maxsize=None)
def pipeline(name):
    """(a, v, certificate documents) of the seed-1 instance, drawn by SplitMix64(1)."""
    decompose, n = PIPELINES[name]
    inst = generate_instance(n, 1)
    v = decompose(inst).v
    rng = SplitMix64(1)
    texts = []
    while len(texts) < CERTIFICATES:
        result = certify(inst.a, v, rng.randint(0, sum(inst.a)))
        if result.status is CertifyStatus.CERTIFIED:
            texts.append(documents.serialize_certificate(result.certificate, v))
    return inst.a, v, texts


def perturbations(a, text, rng):
    """(kind, document) pairs: the document itself and its perturbations."""
    doc = json.loads(text)
    beta, ell, v = int(doc["beta"]), int(doc["ell"]), doc["v"]
    limit = sys.get_int_max_str_digits()
    out = [("as made", doc)]
    for step in (-1, 1):
        out.append(("beta±1", dict(doc, beta=str(beta + step))))
        out.append(("ell±1", dict(doc, ell=str(ell + step))))
        i = rng.randint(0, len(v) - 1)
        if int(v[i]) + step >= 0:  # a direction stays nonnegative
            out.append(("v entry±1", dict(doc, v=v[:i] + [str(int(v[i]) + step)] + v[i + 1:])))
    # the integers at both ends of the good interval (max(a, l), min(a, l + 1)),
    # from the Fraction greedy referee, and a shift of a drawn bit length,
    # which leaves the interval now and then
    direction = tuple(map(int, v))
    hi = math.floor(lp_ineq_greedy(a, direction, ell, "max"))
    lo = math.ceil(lp_ineq_greedy(a, direction, ell + 1, "min"))
    for edge in (hi, hi + 1, lo - 1, lo):
        out.append(("beta at an edge", dict(doc, beta=str(edge))))
    shift = rng.randbits(rng.randint(1, beta.bit_length()))
    for sign in (-1, 1):
        out.append(("beta shifted", dict(doc, beta=str(beta + sign * shift))))
    # leading zeros read as the same number; past the digit limit, nothing reads
    pad = "0" * rng.randint(1, 64)
    out.append(("padded", dict(doc, beta=pad + doc["beta"])))
    out.append(("padded", dict(doc, ell=pad + doc["ell"])))
    i = rng.randint(0, len(v) - 1)
    for long in (
        dict(doc, beta="9" * (limit + 1)),
        dict(doc, ell="1" + "0" * limit),
        dict(doc, v=v[:i] + ["7" * (limit + 1)] + v[i + 1:]),
    ):
        out.append(("past the digit limit", long))
    return [(kind, json.dumps(d)) for kind, d in out]


def certified_at(a, v, beta, level):
    """Does certify(a, v, beta) certify at this level? A refused v certifies nothing."""
    try:
        result = certify(a, v, beta)
    except DomainError:
        return False
    return result.status is CertifyStatus.CERTIFIED and result.certificate.level == level


def expected_verdict(a, text):
    """certify's verdict on the document's (beta, ell, v); None if it does not parse."""
    try:
        claim, v = documents.parse_certificate(text)
    except ParseError:
        return None
    return certified_at(a, v, claim.beta, claim.level)


@pytest.mark.parametrize("name", list(PIPELINES))
def test_verify_accepts_exactly_what_certify_certifies(name):
    a, _, texts = pipeline(name)
    rng = SplitMix64(2)
    verdicts = {}
    for text in texts:
        for kind, doc in perturbations(a, text, rng):
            expected = expected_verdict(a, doc)
            verdicts.setdefault(kind, set()).add(expected)
            if expected is None:
                continue
            claim, v = documents.parse_certificate(doc)
            assert verify_certificate(a, v, claim) is expected, (kind, claim)
            if kind == "as made":
                assert documents.serialize_certificate(claim, v) == text
    # as made, every certificate holds, and padded too; beta + 1 and beta - 1
    # stay in its good interval; a moved level never holds; the interval's
    # ends, the drawn shifts and the moved entries of v give both verdicts;
    # past the digit limit nothing parses
    assert verdicts == {
        "as made": {True}, "padded": {True}, "beta±1": {True}, "ell±1": {False},
        "beta at an edge": {True, False}, "beta shifted": {True, False},
        "v entry±1": {True, False}, "past the digit limit": {None},
    }


@pytest.mark.parametrize("name", list(PIPELINES))
def test_cli_verify_exit_code_matches(name, tmp_path, capsys):
    a, _, texts = pipeline(name)
    _, n = PIPELINES[name]
    inst_path = tmp_path / "instance.json"
    inst_path.write_text(documents.serialize_instance(generate_instance(n, 1)))
    cert_path = tmp_path / "certificate.json"
    rng = SplitMix64(3)
    codes = set()
    for text in texts[:CLI_CERTIFICATES]:
        for kind, doc in perturbations(a, text, rng):
            cert_path.write_text(doc)
            code = main(["verify", "--instance", str(inst_path), "--certificate", str(cert_path)])
            err = capsys.readouterr().err
            expected = expected_verdict(a, doc)
            assert code == (0 if expected else 1), (kind, err)
            if expected is None:
                assert err.startswith("sscert: certificate rejected:"), (kind, err)
            codes.add(code)
    assert codes == {0, 1}


INSTANCE_MUTANTS = 60
MUTANT_RUN_S = 2.0  # wall-time bound of one in-process run of each command


def instance_mutants(text, rng):
    """(kind, document) pairs: INSTANCE_MUTANTS mutations of an instance document."""
    doc = json.loads(text)
    weights = doc["a"]
    kinds = (
        "digit changed", "weight dropped", "weight duplicated", "n off by one",
        "weight as a JSON number", "weight <= 0",
    )
    out = []
    for k in range(INSTANCE_MUTANTS):
        kind = kinds[k % len(kinds)]
        a = list(weights)
        i = rng.randint(0, len(a) - 1)
        n = doc["n"]
        if kind == "digit changed":
            j = rng.randint(0, len(a[i]) - 1)
            digit = str((int(a[i][j]) + rng.randint(1, 9)) % 10)
            a[i] = a[i][:j] + digit + a[i][j + 1:]
        elif kind == "weight dropped":
            del a[i]
            n -= rng.randint(0, 1)  # the count kept or matched
        elif kind == "weight duplicated":
            a.insert(i, a[i])
            n += rng.randint(0, 1)
        elif kind == "n off by one":
            n += 1 if rng.randint(0, 1) else -1
        elif kind == "weight as a JSON number":
            a[i] = int(a[i])
        else:
            a[i] = "-" + a[i] if rng.randint(0, 1) else "0"
        out.append((kind, json.dumps(dict(doc, a=a, n=n))))
    return out


def test_mutated_instance_documents_never_end_in_an_internal_error(tmp_path, capsys):
    # the decomposition and certificate of the seed-1 FT n=10 instance,
    # read beside each mutated instance: certify, verify, stats and
    # intervals exit 0-3, and so does decompose of the mutant alone
    inst = generate_instance(10, 1)
    dec = decompose_frank_tardos(inst)
    texts = pipeline("ft10")[2]
    claim, _ = documents.parse_certificate(texts[0])
    dec_path, cert_path = tmp_path / "decomposition.json", tmp_path / "certificate.json"
    dec_path.write_text(documents.serialize_decomposition(dec))
    cert_path.write_text(texts[0])
    inst_path, out = tmp_path / "instance.json", str(tmp_path / "out.json")
    with_dec = ["--instance", str(inst_path), "--decomposition", str(dec_path), "-o", out]
    commands = {
        "certify": ["certify", *with_dec, "--beta", str(claim.beta)],
        "verify": ["verify", "--instance", str(inst_path), "--certificate", str(cert_path)],
        "decompose": ["decompose", "--instance", str(inst_path), "-o", out],
        "stats": ["stats", *with_dec],
        "intervals": ["intervals", *with_dec, "--k-lo", "0", "--k-hi", "50"],
    }
    codes = {}
    for kind, text in instance_mutants(documents.serialize_instance(inst), SplitMix64(4)):
        inst_path.write_text(text)
        for command, argv in commands.items():
            Path(out).unlink(missing_ok=True)
            start = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - start
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), (kind, command, code, err)
            assert elapsed < MUTANT_RUN_S, (kind, command, elapsed)
            if command == "decompose" and code == 0:
                # a mutant that is read is an instance, and gets its own direction
                got = documents.parse_decomposition(Path(out).read_text())
                assert got.reconstruct_a() == documents.parse_instance(text)[0].a, kind
            codes.setdefault((kind, command), set()).add(code)
    # certify, stats and intervals refuse every mutant, whose weights the
    # decomposition no longer matches; verify reads an instance of changed
    # weights, or of one weight fewer or more when n follows, and rejects
    # the certificate; decompose gives changed digits their own direction
    # and refuses the rest: n = 9 lies below the Frank-Tardos window, and
    # n = 11 asks for weights of 2^242
    refused = {2}
    mismatch = {"certify": refused, "stats": refused, "intervals": refused}
    own = {
        "digit changed": {"verify": {1}, "decompose": {0}},
        "weight dropped": {"verify": {1, 2}, "decompose": refused},
        "weight duplicated": {"verify": {1, 2}, "decompose": refused},
        "n off by one": {"verify": refused, "decompose": refused},
        "weight as a JSON number": {"verify": refused, "decompose": refused},
        "weight <= 0": {"verify": refused, "decompose": refused},
    }
    assert codes == {
        (kind, command): code
        for kind, row in own.items()
        for command, code in {**mismatch, **row}.items()
    }


DECOMPOSITION_MUTANTS = 48
# wall-time bound of one in-process run of each command on a mutant
DECOMPOSITION_RUN_S = {"certify": 2.0, "stats": 2.0, "intervals": 2.0}


def decomposition_mutants(text, rng):
    """(kind, document) pairs: DECOMPOSITION_MUTANTS mutations of a decomposition document."""
    doc = json.loads(text)
    kinds = (
        "as made", "entry zero-padded", "unknown key added",
        "v entry±1", "v entry±1, r entry∓lambda", "lambda numerator±1", "r entry±1",
        "entry dropped", "entry as a JSON number", "digit changed", "method swapped",
        "past the digit limit",
    )
    limit = sys.get_int_max_str_digits()
    scale = documents.parse_fraction(doc["lambda"], "$.lambda")
    out = []
    for k in range(DECOMPOSITION_MUTANTS):
        kind = kinds[k % len(kinds)]
        v, r, mutant = list(doc["v"]), list(doc["r"]), dict(doc)
        i = rng.randint(0, len(v) - 1)
        step = 1 if rng.randint(0, 1) else -1
        if kind == "entry zero-padded":  # reads as the same number
            v[i] = "0" * rng.randint(1, 64) + v[i]
        elif kind == "unknown key added":  # unread keys are ignored
            mutant["note"] = str(rng.next_u64())
        elif kind == "v entry±1":
            v[i] = str(int(v[i]) + step)
        elif kind == "v entry±1, r entry∓lambda":  # lambda v + r = a still holds
            v[i] = str(int(v[i]) + step)
            ri = documents.parse_fraction(r[i], "$.r") - step * scale
            r[i] = documents.format_fraction(ri)
        elif kind == "lambda numerator±1":
            num, den = doc["lambda"].split("/")
            mutant["lambda"] = f"{int(num) + step}/{den}"
        elif kind == "r entry±1":
            r[i] = documents.format_fraction(documents.parse_fraction(r[i], "$.r") + step)
        elif kind == "entry dropped":
            del (v if rng.randint(0, 1) else r)[i]
        elif kind == "entry as a JSON number":
            v[i] = int(v[i])
        elif kind == "digit changed":
            j = rng.randint(0, len(v[i]) - 1)
            v[i] = v[i][:j] + str((int(v[i][j]) + rng.randint(1, 9)) % 10) + v[i][j + 1:]
        elif kind == "method swapped":
            swapped = {"frank_tardos": "lll_rows", "lll_rows": "frank_tardos"}
            mutant["method"] = swapped[doc["method"]]
        elif kind == "past the digit limit":
            v[i] = "7" * (limit + 1)
        out.append((kind, json.dumps(dict(mutant, v=v, r=r))))
    return out


@pytest.mark.parametrize("name", list(PIPELINES))
def test_mutated_decomposition_documents_never_end_in_an_internal_error(name, tmp_path, capsys):
    # the seed-1 instance beside each mutated decomposition: certify at a
    # certified beta, stats and intervals on the window [0, 50] exit 0-3,
    # and a mutant that is read at all gives the honest document's output
    decompose, n = PIPELINES[name]
    inst = generate_instance(n, 1)
    claim, _ = documents.parse_certificate(pipeline(name)[2][0])
    inst_path, dec_path = tmp_path / "instance.json", tmp_path / "decomposition.json"
    inst_path.write_text(documents.serialize_instance(inst))
    out = str(tmp_path / "out.json")
    with_docs = ["--instance", str(inst_path), "--decomposition", str(dec_path), "-o", out]
    commands = {
        "certify": ["certify", *with_docs, "--beta", str(claim.beta)],
        "stats": ["stats", *with_docs],
        "intervals": ["intervals", *with_docs, "--k-lo", "0", "--k-hi", "50"],
    }
    text = documents.serialize_decomposition(decompose(inst))
    dec_path.write_text(text)
    honest = {}
    for command, argv in commands.items():
        assert main(argv) == 0
        honest[command] = Path(out).read_text()
    codes = {}
    for kind, mutant in decomposition_mutants(text, SplitMix64(5)):
        dec_path.write_text(mutant)
        for command, argv in commands.items():
            Path(out).unlink(missing_ok=True)
            start = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - start
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), (kind, command, code, err)
            assert elapsed < DECOMPOSITION_RUN_S[command], (kind, command, elapsed)
            if code == 0:
                assert Path(out).read_text() == honest[command], (kind, command)
            codes.setdefault(kind, set()).add(code)
    # the neutral edits are read as the honest document, and every other
    # mutant is refused as a document error, by each command alike
    read = {"as made", "entry zero-padded", "unknown key added"}
    assert codes == {kind: {0} if kind in read else {2} for kind in codes}
    assert len(codes) == 12
