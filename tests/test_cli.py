import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from sscert import cli, documents, lll
from sscert.branching import (
    CertifyStatus,
    certify,
    coverage_stats,
    enumerate_intervals,
)
from sscert.cli import main
from sscert.decompose import Decomposition, decompose_lll_rows
from sscert.errors import CapacityError, DomainError, InvariantViolation
from sscert.lll import ReductionStats
from sscert.model import Instance, generate_instance
from test_decompose import mixed_sign_reduction
from test_documents import PIPELINE_BETA, older_format
from test_lll import FAULTS, faulty_kernel

TOY = Instance(a=(100, 101, 102))


def toy_decomposition():
    return Decomposition(
        v=(1, 1, 1),
        scale=Fraction(101),
        residual=(Fraction(-1), Fraction(0), Fraction(1)),
        provenance=ReductionStats(dim=3, swaps=0, size_reductions=0),
    )


def write_pair(tmp_path, inst, dec):
    inst_path = tmp_path / "instance.json"
    dec_path = tmp_path / "decomposition.json"
    inst_path.write_text(documents.serialize_instance(inst))
    dec_path.write_text(documents.serialize_decomposition(dec))
    return tmp_path, str(inst_path), str(dec_path)


@pytest.fixture
def toy_files(tmp_path):
    return write_pair(tmp_path, TOY, toy_decomposition())


def test_generate_deterministic_bytes(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["generate", "--n", "4", "--seed", "11", "-o", str(out1)]) == 0
    assert main(["generate", "--n", "4", "--seed", "11", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text() == documents.serialize_instance(generate_instance(4, 11))


def test_generate_usage_error():
    assert main(["generate", "--n", "1", "--seed", "0"]) == 2


@pytest.mark.parametrize(
    "exc, code",
    [
        (InvariantViolation("broken invariant"), 4),
        (ZeroDivisionError("division by zero"), 4),
        (CapacityError("too big"), 3),
        (DomainError("bad input"), 2),
        (OSError("no such file"), 2),
    ],
)
def test_exit_code_by_exception(monkeypatch, capsys, exc, code):
    # an internal bug must look neither like a verdict (1) nor a usage error (2)
    def raise_it(config):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "generate", raise_it)
    assert main(["generate", "--n", "3", "--seed", "1"]) == code
    err = capsys.readouterr().err
    assert err.startswith("sscert: ") and err.count("\n") == 1
    assert err.startswith("sscert: internal error: ") == (code == 4)


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe", b"[" * 100_000, b'{"kind": "instance", "n": 1' + b"0" * 5000 + b"}"],
    ids=["undecodable", "deeply_nested", "huge_integer"],
)
def test_hostile_document_is_a_usage_error(tmp_path, content):
    path = tmp_path / "instance.json"
    path.write_bytes(content)
    assert main(["verify", "--instance", str(path), "--certificate", str(path)]) == 2


def test_oversized_decimal_is_a_usage_error():
    assert main(["generate", "--n", "3", "--seed", "9" * 5000]) == 2


def test_non_ascii_digits_are_a_usage_error():
    # int() reads Arabic-Indic digits as 42; a decimal argument takes 0-9 only
    assert main(["generate", "--n", "3", "--seed", "\u0664\u0662"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--n", "\u0663", "--seed", "5"],
        ["generate", "--n", "1_0", "--seed", "5"],
    ],
    ids=["n_arabic_indic", "n_underscore"],
)
def test_counts_take_ascii_digits_only(argv):
    # int() reads "\u0663" as 3 and "1_0" as 10; counts take 0-9 only
    assert main(argv) == 2


def test_generate_n_is_bounded(capsys):
    # no decompose method accepts n above 32; refused before any weight is drawn
    assert main(["generate", "--n", "33", "--seed", "1"]) == 3
    assert "n 33 exceeds the limit 32" in capsys.readouterr().err
    assert main(["generate", "--n", "32", "--seed", "1"]) == 0


@pytest.fixture
def digit_limit_unchanged():
    limit = sys.get_int_max_str_digits()
    yield
    assert sys.get_int_max_str_digits() == limit


def test_huge_weight_is_a_usage_error(tmp_path, capsys, digit_limit_unchanged):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"kind": "instance", "n": 2, "a": ["1" * 10**6, "3"]}))
    out = tmp_path / "direction.json"
    assert main(["decompose", "--instance", str(path), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "$.a[0]" in err
    assert not out.exists()


def test_decomposition_past_digit_limit_is_a_capacity_error(
    tmp_path, capsys, digit_limit_unchanged
):
    # two coprime 3914-digit weights: the reduction's scale has 5871 digits
    a = (7**4631, 5**5599)
    assert [len(str(x)) for x in a] == [3914, 3914]
    path = tmp_path / "instance.json"
    path.write_text(documents.serialize_instance(Instance(a=a)))
    out = tmp_path / "direction.json"
    argv = ["decompose", "--method", "lll_rows", "--instance", str(path), "-o", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "digit limit" in err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["18446744073709551621", "18446744073709551616", "-1"])
def test_seed_outside_64_bits_is_a_usage_error(seed):
    # SplitMix64 masks its seed to 64 bits: 2^64 + 5 would draw what 5 draws
    assert main(["generate", "--n", "3", "--seed", seed]) == 2


def test_largest_seed_is_accepted(capsys):
    assert main(["generate", "--n", "3", "--seed", str((1 << 64) - 1)]) == 0
    assert capsys.readouterr().out == documents.serialize_instance(
        generate_instance(3, (1 << 64) - 1)
    )


def test_certify_verify_happy_path(toy_files):
    tmp_path, inst_path, dec_path = toy_files
    cert_path = tmp_path / "cert.json"
    code = main([
        "certify", "--instance", inst_path, "--decomposition", dec_path,
        "--beta", "150", "-o", str(cert_path),
    ])
    assert code == 0
    assert cert_path.read_text() == documents.serialize_certificate(
        certify(TOY.a, (1, 1, 1), 150).certificate, (1, 1, 1)
    )
    assert main(["verify", "--instance", inst_path, "--certificate", str(cert_path)]) == 0

    tampered = tmp_path / "tampered.json"
    tampered.write_text(cert_path.read_text().replace('"beta": "150"', '"beta": "102"'))
    assert main(["verify", "--instance", inst_path, "--certificate", str(tampered)]) == 1

    mangled = tmp_path / "mangled.json"
    mangled.write_text(cert_path.read_text().replace('"ell": "1"', '"ell": "2"'))
    assert main(["verify", "--instance", inst_path, "--certificate", str(mangled)]) == 1


def test_verify_takes_no_output_option(toy_files):
    # verify writes no document, so argparse refuses -o and nothing is written
    tmp_path, inst_path, dec_path = toy_files
    cert_path, out_path = tmp_path / "cert.json", tmp_path / "out.json"
    assert main([
        "certify", "--instance", inst_path, "--decomposition", dec_path,
        "--beta", "150", "-o", str(cert_path),
    ]) == 0
    verify = ["verify", "--instance", inst_path, "--certificate", str(cert_path)]
    assert main(verify) == 0
    for option in ("-o", "--output"):
        with pytest.raises(SystemExit) as exit_info:
            main([*verify, option, str(out_path)])
        assert exit_info.value.code == 2
        assert not out_path.exists()


def test_certify_statuses(toy_files, capsys):
    _, inst_path, dec_path = toy_files
    base = ["certify", "--instance", inst_path, "--decomposition", dec_path]
    for beta, code, status in (
        (101, 1, CertifyStatus.NO_CERTIFICATE),
        (-1, 0, CertifyStatus.TRIVIALLY_INFEASIBLE),
    ):
        assert main(base + ["--beta", str(beta)]) == code
        assert certify(TOY.a, (1, 1, 1), beta).status is status
        assert capsys.readouterr().out == documents.serialize_certify_status(status, beta)


def test_intervals_matches_library(toy_files, capsys):
    _, inst_path, dec_path = toy_files
    assert main(["intervals", "--instance", inst_path, "--decomposition", dec_path]) == 0
    dec = toy_decomposition()
    assert capsys.readouterr().out == documents.serialize_interval_cover(
        enumerate_intervals(TOY.a, dec.v)
    )


@pytest.mark.parametrize("value", ["x", None, [1], 1.5, True, -1])
def test_malformed_provenance_count_is_a_usage_error(toy_files, capsys, value):
    _, inst_path, dec_path = toy_files
    doc = json.loads(open(dec_path).read())
    doc["provenance"]["swaps"] = value
    with open(dec_path, "w") as handle:
        json.dump(doc, handle)
    assert main(["intervals", "--instance", inst_path, "--decomposition", dec_path]) == 2
    assert "$.provenance.swaps" in capsys.readouterr().err


def test_intervals_capacity(tmp_path, capsys):
    # ||v||_1 = 4000004 levels, past the fixed enumeration cap of 10^5
    a = (2000001, 2000003)
    dec = Decomposition(
        v=a,
        scale=Fraction(1),
        residual=(Fraction(0), Fraction(0)),
        provenance=ReductionStats(dim=2, swaps=0, size_reductions=0),
    )
    _, inst_path, dec_path = write_pair(tmp_path, Instance(a=a), dec)
    base = ["--instance", inst_path, "--decomposition", dec_path]
    assert main(["intervals", *base]) == 3
    assert "exceeds the cap 100000;" in capsys.readouterr().err
    # exact stats counts in closed form: no cap, every integer is bad
    assert main(["stats", *base]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert (stats["g"], stats["b"]) == ("0", str(sum(a) + 1))
    # the cap is a constant: no option can lift it
    removed_option = "--" + "cap"
    for command in ("intervals", "stats"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, *base, removed_option, "1"])
        assert exit_info.value.code == 2


def test_intervals_capacity_past_digit_limit(tmp_path, capsys, digit_limit_unchanged):
    # every number is within the int/str digit limit, ||v||_1 is not
    a = (9 * 10**4299 + 1, 9 * 10**4299 + 2)
    dec = Decomposition(
        v=a,
        scale=Fraction(1),
        residual=(Fraction(0), Fraction(0)),
        provenance=ReductionStats(dim=2, swaps=0, size_reductions=0),
    )
    _, inst_path, dec_path = write_pair(tmp_path, Instance(a=a), dec)
    assert main(["intervals", "--instance", inst_path, "--decomposition", dec_path]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exceeds the cap 100000;" in err


def test_stats_is_exact_only(toy_files, capsys):
    _, inst_path, dec_path = toy_files
    dec = toy_decomposition()
    base = ["stats", "--instance", inst_path, "--decomposition", dec_path]
    assert main(base) == 0
    assert capsys.readouterr().out == documents.serialize_coverage_stats(
        coverage_stats(TOY.a, dec.v, dec.scale, dec.residual, "exact")
    )
    # the sampling options are gone: argparse refuses each one
    for option, value in (
        ("--mode", "sampled"), ("--mode", "exact"), ("--sample-size", "60"),
        ("--seed", "4"), ("--workers", "2"),
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([*base, option, value])
        assert exit_info.value.code == 2


def test_cor1_exact(toy_files, capsys):
    # stats decides Corollary 1 from the bad count it reports
    _, inst_path, dec_path = toy_files
    assert main(["stats", "--instance", inst_path, "--decomposition", dec_path]) == 0
    dec = toy_decomposition()
    report = coverage_stats(TOY.a, (1, 1, 1), dec.scale, dec.residual, "exact")
    assert report.g == 296
    assert report.corollary_1 == "holds"
    assert capsys.readouterr().out == documents.serialize_coverage_stats(report)


def test_cor1_command_is_gone(toy_files, capsys):
    # stats carries Corollary 1: argparse refuses the old command, with any options
    _, inst_path, dec_path = toy_files
    base = ["cor1", "--instance", inst_path, "--decomposition", dec_path]
    for extra in ([], ["--mode", "sampled"], ["--mode", "exact"],
                  ["--sample-size", "60"], ["--seed", "4"]):
        with pytest.raises(SystemExit) as exit_info:
            main([*base, *extra])
        assert exit_info.value.code == 2
    assert "invalid choice: 'cor1'" in capsys.readouterr().err


def test_import_leaves_oracle_unloaded():
    # the subset sum oracle is a referee; no command reaches it
    code = "import sys, sscert.cli; print('sscert.oracle' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cor1_decides_lll_rows_n24(tmp_path, capsys):
    # the count is closed form: n = 24 takes what n = 10 takes, under a millisecond
    inst = generate_instance(24, 1)
    dec = decompose_lll_rows(inst)
    _, inst_path, dec_path = write_pair(tmp_path, inst, dec)
    assert main(["stats", "--instance", inst_path, "--decomposition", dec_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["corollary_1"] == "holds"
    assert doc["good_length_bound_holds"] is True
    assert int(doc["g"]) + int(doc["b"]) == sum(inst.a) + 1


# a right-hand side that the n=10, seed-1 instance certifies
CERTIFIED_BETA = 6210704809787412867635402647213653485620103494156017967728800


def test_non_coprime_instance_flow(tmp_path, capsys):
    # 3a goes through every command as a does: the gcd 3 is divided out
    # of the weights, and out of beta where it divides beta; documents
    # name beta as asked
    coprime = write_instance(tmp_path, 10, 1)
    doc = json.loads(open(coprime).read())
    doc["a"] = [str(3 * int(x)) for x in doc["a"]]
    tripled = tmp_path / "tripled.json"
    tripled.write_text(json.dumps(doc))

    def output(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    dec_path = tmp_path / "direction.json"
    dec_path.write_text(output(["decompose", "--instance", coprime]))
    with_dec = ["--decomposition", str(dec_path), "--instance"]
    for command in (
        ["decompose", "--instance"], ["decompose", "--method", "lll_rows", "--instance"],
        ["stats", *with_dec],
        ["intervals", "--k-lo", "0", "--k-hi", "50", *with_dec],
    ):
        assert output(command + [str(tripled)]) == output(command + [coprime])

    certify_tripled = ["certify", "--instance", str(tripled),
                       "--decomposition", str(dec_path), "--beta"]
    cert = output(certify_tripled + [str(3 * CERTIFIED_BETA)])
    coprime_cert = output([
        "certify", "--instance", coprime, "--decomposition", str(dec_path),
        "--beta", str(CERTIFIED_BETA),
    ])
    # the certificate of a / g with beta as asked: a.x = g (a / g).x
    assert json.loads(cert)["beta"] == str(3 * CERTIFIED_BETA)
    assert cert == coprime_cert.replace(
        f'"beta": "{CERTIFIED_BETA}"', f'"beta": "{3 * CERTIFIED_BETA}"'
    )
    assert documents.document_kind(cert) == "certificate"
    cert_path = tmp_path / "certificate.json"
    cert_path.write_text(cert)
    coprime_cert_path = tmp_path / "coprime_certificate.json"
    coprime_cert_path.write_text(coprime_cert)
    output(["verify", "--instance", str(tripled), "--certificate", str(cert_path)])
    # each certificate holds for its own instance only
    for inst_path, path in ((coprime, cert_path), (tripled, coprime_cert_path)):
        assert main(["verify", "--instance", str(inst_path), "--certificate", str(path)]) == 1
        assert capsys.readouterr().err.count("\n") == 1

    beta = 3 * CERTIFIED_BETA + 1
    assert output(certify_tripled + [str(beta)]) == documents.serialize_certify_status(
        CertifyStatus.TRIVIALLY_INFEASIBLE_GCD, beta
    )

    # the decomposition is read for every beta, divisible by the gcd or not
    missing = ["certify", "--instance", str(tripled),
               "--decomposition", str(tmp_path / "missing.json")]
    for beta in (3 * CERTIFIED_BETA, 3 * CERTIFIED_BETA + 1):
        assert main(missing + ["--beta", str(beta)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1

    # dividing out the gcd is no option: argparse refuses the old flag
    with pytest.raises(SystemExit) as exit_info:
        main(certify_tripled + [str(beta), "--normalize-gcd"])
    assert exit_info.value.code == 2


def test_certificate_of_a_is_refused_for_its_multiple(toy_files, capsys):
    # 300 and 250 are certified for (100, 101, 102); against (300, 303, 306)
    # the claim 300 is false (x = (1, 0, 0)) and 250 is not a multiple of 3
    tmp_path, inst_path, dec_path = toy_files
    tripled = tmp_path / "tripled.json"
    tripled.write_text(json.dumps({"kind": "instance", "n": 3, "a": ["300", "303", "306"]}))
    # the tripled weights read as the toy instance with divisor 3
    assert documents.parse_instance(tripled.read_text()) == (TOY, 3)
    for beta in (300, 250):
        cert_path = tmp_path / f"certificate_{beta}.json"
        assert main([
            "certify", "--instance", inst_path, "--decomposition", dec_path,
            "--beta", str(beta), "-o", str(cert_path),
        ]) == 0
        assert json.loads(cert_path.read_text())["beta"] == str(beta)
        assert main(["verify", "--instance", inst_path, "--certificate", str(cert_path)]) == 0
        capsys.readouterr()
        assert main(["verify", "--instance", str(tripled), "--certificate", str(cert_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("sscert: rejected")
    # 3 * 300 is the claim about (300, 303, 306) that holds
    cert_path = tmp_path / "certificate_900.json"
    assert main([
        "certify", "--instance", str(tripled), "--decomposition", dec_path,
        "--beta", "900", "-o", str(cert_path),
    ]) == 0
    assert json.loads(cert_path.read_text())["beta"] == "900"
    assert main(["verify", "--instance", str(tripled), "--certificate", str(cert_path)]) == 0
    assert main(["verify", "--instance", inst_path, "--certificate", str(cert_path)]) == 1


def test_decomposition_instance_mismatch(toy_files, tmp_path):
    _, inst_path, dec_path = toy_files
    other = tmp_path / "other.json"
    other.write_text(documents.serialize_instance(Instance(a=(3, 5, 7))))
    assert main([
        "certify", "--instance", str(other), "--decomposition", dec_path,
        "--beta", "5",
    ]) == 2


def write_instance(tmp_path, n, seed):
    inst_path = tmp_path / "instance.json"
    inst_path.write_text(documents.serialize_instance(generate_instance(n, seed)))
    return str(inst_path)


def test_decompose_mixed_sign_reduction_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # no fallback document and no Python warning, one diagnostic line
    inst_path = write_instance(tmp_path, 10, 1)
    out = tmp_path / "direction.json"
    mixed_sign_reduction(monkeypatch)
    argv = ["decompose", "--instance", inst_path, "--method", "lll_rows", "-o", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("sscert: reduced direction has mixed signs")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


def test_kernel_fault_is_an_internal_error(tmp_path, monkeypatch, capsys):
    # a kernel result that breaks any one post-condition is exit 4
    inst_path = write_instance(tmp_path, 10, 1)
    out = tmp_path / "direction.json"
    for part, message in FAULTS.items():
        monkeypatch.setattr(lll, "_kernel", faulty_kernel(part))
        assert main(["decompose", "--instance", inst_path, "-o", str(out)]) == 4
        assert capsys.readouterr().err == f"sscert: internal error: {message}\n"
        assert not out.exists()


def test_decompose_is_bounded_by_n(tmp_path, capsys):
    inst_path = write_instance(tmp_path, 17, 1)
    assert main(["decompose", "--instance", inst_path]) == 3
    assert "capped at n = 16" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["decompose", "certify", "verify", "intervals", "stats"])
def test_every_command_refuses_an_instance_past_the_n_limit(toy_files, capsys, command):
    # the instance document is capped at n = 32, the largest n that any
    # decompose accepts, before any weight is converted: n = 33 exits 3
    # within a second, whatever else the command reads
    tmp_path, _, dec_path = toy_files
    cert_path = tmp_path / "cert.json"
    claim = certify(TOY.a, (1, 1, 1), 150).certificate
    cert_path.write_text(documents.serialize_certificate(claim, (1, 1, 1)))
    inst_path = write_instance(tmp_path, 33, 1)
    rest = {
        "decompose": [],
        "certify": ["--decomposition", dec_path, "--beta", "150"],
        "verify": ["--certificate", str(cert_path)],
    }.get(command, ["--decomposition", dec_path])
    start = time.perf_counter()
    assert main([command, "--instance", inst_path, *rest]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", "sscert: n 33 exceeds the limit 32\n")


def test_end_to_end_pipeline(tmp_path):
    inst_path = tmp_path / "inst.json"
    dec_path = tmp_path / "dec.json"
    cert_path = tmp_path / "cert.json"
    assert main(["generate", "--n", "10", "--seed", "42", "-o", str(inst_path)]) == 0
    assert main([
        "decompose", "--instance", str(inst_path), "-o", str(dec_path),
    ]) == 0
    # decompose output is byte-deterministic
    dec_path2 = tmp_path / "dec2.json"
    assert main([
        "decompose", "--instance", str(inst_path), "-o", str(dec_path2),
    ]) == 0
    assert dec_path.read_bytes() == dec_path2.read_bytes()

    inst, _ = documents.parse_instance(inst_path.read_text())
    # a mid-range right-hand side; overwhelmingly in a good interval
    beta = sum(inst.a) // 3
    code = main([
        "certify", "--instance", str(inst_path), "--decomposition", str(dec_path),
        "--beta", str(beta), "-o", str(cert_path),
    ])
    assert code == 0
    assert main([
        "verify", "--instance", str(inst_path), "--certificate", str(cert_path),
    ]) == 0


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sscert", "generate", "--n", "3", "--seed", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    inst, _ = documents.parse_instance(proc.stdout)
    assert inst.n == 3


def test_frank_tardos_provenance_must_match_the_instance(tmp_path, capsys):
    # q, the precision and err_inf are derived from v, lambda and r: the
    # values an older document stored are not read, whatever they say,
    # and a scale other than max(a) / q is refused
    inst_path = write_instance(tmp_path, 10, 1)
    dec_path = tmp_path / "direction.json"
    assert main(["decompose", "--instance", inst_path, "-o", str(dec_path)]) == 0
    honest = dec_path.read_text()
    older = json.loads(older_format(documents.parse_decomposition(honest)))
    prov = older["provenance"]
    q, precision = int(prov["q"]), int(prov["precision"])
    tampered = {
        "q + 1": {"q": str(q + 1)},
        "q = 1": {"q": "1"},
        "precision + 1": {"precision": str(precision + 1)},
        "err_inf = 0": {"err_inf": "0/1"},
        "err_inf / 2": {"err_inf": str(Fraction(prov["err_inf"]) / 2)},
    }

    def outputs(text):
        dec_path.write_text(text)
        runs = []
        for extra in ([], ["--beta", "0"], ["--beta", str(PIPELINE_BETA)]):
            command = "certify" if extra else "stats"
            argv = [command, "--instance", inst_path, "--decomposition", str(dec_path)]
            runs.append((main(argv + extra), capsys.readouterr()))
        return runs

    expected = outputs(honest)
    assert [code for code, _ in expected] == [0, 1, 0]
    assert '"ell"' in expected[2][1].out
    for name, change in tampered.items():
        forged = json.dumps(dict(older, provenance=dict(prov, **change)))
        assert outputs(forged) == expected, name
    # lambda + 1 with r = a - (lambda + 1) v, so that lambda v + r is still a
    doc = json.loads(honest)
    scale = Fraction(doc["lambda"]) + 1
    doc["lambda"] = f"{scale.numerator}/{scale.denominator}"
    doc["r"] = [
        str(ai - scale * int(vi)) for ai, vi in zip(generate_instance(10, 1).a, doc["v"])
    ]
    for extra in ([], ["--beta", str(PIPELINE_BETA)]):
        command = "certify" if extra else "stats"
        dec_path.write_text(json.dumps(doc))
        argv = [command, "--instance", inst_path, "--decomposition", str(dec_path)]
        assert main(argv + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("sscert: scale must be max(a) / q") and "(at $.lambda)" in err
