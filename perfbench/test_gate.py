"""The benchmark's gate must count forged results as failed operations.

    python3 -m pytest perfbench/test_gate.py

A certificate whose level is shifted by one, and a feasible beta forced
into the certified set, must each register as a failed attempt, never
pass. The forged objects bypass the dataclass checks the way a buggy
certifier could.
"""

from __future__ import annotations

import collections
import importlib
import random
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gate as G  # noqa: E402
import parts  # noqa: E402

MODULES = ("model", "decompose", "branching", "oracle", "documents")


@pytest.fixture(scope="module")
def pipeline():
    m = types.SimpleNamespace(
        **{name: importlib.import_module(f"sscert.{name}") for name in MODULES}
    )
    inst = m.model.generate_instance(parts.PIPE_N, 42)
    dec = m.decompose.decompose_frank_tardos(inst)
    inputs = parts.Inputs(
        shapes={}, inst=inst, dec=dec, block=[], coverage_seed=1, cli=[]
    )
    rnd = random.Random(42)
    while True:
        beta = rnd.randint(0, sum(inst.a))
        result = m.branching.certify(inst.a, dec.v, beta)
        if result.status.value == "certified":
            break
    feasible_beta = sum(ai for ai in inst.a[::2])
    return m, inputs, result, feasible_beta


def fresh_bench(m, inputs):
    return parts.Bench(m, inputs, G.Gate(), None, None, {})


def forged(m, result, **changes):
    """The certify result with certificate fields overwritten, checks bypassed."""
    cert = result.certificate
    copy = m.branching.Certificate(
        beta=cert.beta, level=cert.level, vmin=cert.vmin, vmax=cert.vmax,
        arg_min=cert.arg_min, arg_max=cert.arg_max,
    )
    for field, value in changes.items():
        object.__setattr__(copy, field, value)
    beta = changes.get("beta", result.beta)
    return m.branching.CertifyResult(m.branching.CertifyStatus.CERTIFIED, beta, copy)


def test_honest_certificate_passes(pipeline):
    m, inputs, result, _ = pipeline
    bench = fresh_bench(m, inputs)
    assert bench.check_beta(G.UNIFORM, result.beta, result) == "certified"
    assert (bench.gate.attempted, bench.gate.failed) == (2, 0)


@pytest.mark.parametrize("shift", [1, -1])
def test_level_shifted_certificate_fails(pipeline, shift):
    m, inputs, result, _ = pipeline
    bad = forged(m, result, level=result.certificate.level + shift)
    bench = fresh_bench(m, inputs)
    bench.check_beta(G.UNIFORM, result.beta, bad)
    assert bench.gate.failed == 1
    assert bench.gate.reasons["verify_certificate rejects a certificate"] == 1


@pytest.mark.parametrize("kind", [G.FEASIBLE, G.UNIFORM])
def test_feasible_beta_forced_certified_fails(pipeline, kind):
    m, inputs, result, beta = pipeline
    assert m.oracle.feasible(inputs.inst.a, beta).feasible
    bad = forged(m, result, beta=beta)
    bench = fresh_bench(m, inputs)
    bench.check_beta(kind, beta, bad)
    assert bench.gate.failed >= 1
    expected = {
        G.FEASIBLE: "feasible beta came back certified",
        G.UNIFORM: "a feasible beta was certified",
    }[kind]
    assert bench.gate.reasons[expected] == 1


def test_out_of_range_beta_must_be_trivially_infeasible(pipeline):
    m, inputs, _, _ = pipeline
    beta = sum(inputs.inst.a) + 1
    wrong = m.branching.CertifyResult(m.branching.CertifyStatus.NO_CERTIFICATE, beta)
    bench = fresh_bench(m, inputs)
    bench.check_beta(G.OUT_OF_RANGE, beta, wrong)
    assert bench.gate.failed == 1


def test_cli_document_mismatch_and_exit_code_fail():
    assert G.process_problems("certify", 0, 0, "same\n", "same\n") == []
    assert G.process_problems("certify", 0, 0, "one\n", "two\n")
    assert G.process_problems("certify", 1, 0, None, None)


def test_tampered_decomposition_fails(pipeline):
    m, inputs, _, _ = pipeline
    dec = inputs.dec
    assert G.decomposition_problems(inputs.inst.a, dec) == []
    shifted = tuple(x + 1 for x in inputs.inst.a)
    assert G.decomposition_problems(shifted, dec)


@pytest.mark.parametrize("uncertified, fails", [(0, False), (1, False), (3, False), (4, True), (200, True)])
def test_coverage_count_is_held_to_the_bound(uncertified, fails):
    # At a bound of 5e-6, 1 uncertified draw in 2000 happens in ~1% of calls;
    # 4 or more are less likely than the gate's alpha.
    stats = types.SimpleNamespace(g=2000 - uncertified, b=uncertified, sample_size=2000,
                                  bad_fraction_bound=Fraction(5, 10**6))
    assert bool(G.coverage_problems(stats, 2000)) == fails


@pytest.mark.parametrize("workload", ["decompose", "cli_pipeline"])
def test_plan_is_fixed_and_fully_scheduled(workload):
    plan = parts.plan_for(workload, 52)
    assert plan == parts.plan_for(workload, 52)
    for part in parts.EXTENDS[workload]:
        assert getattr(plan, part) > parts.BASE_UNITS[part]
    units = parts.schedule(plan)
    assert len(units) == len(set(units))
    count = collections.Counter(part for part, _, _ in units)
    for scope in parts.SHAPES:
        assert count[scope] == getattr(plan, scope)
    assert count["certify"] == plan.certify * parts.CERTIFY_PASSES * parts.BLOCK_BETAS
    assert count["cli"] == plan.cli * parts.CLI_REPEATS
