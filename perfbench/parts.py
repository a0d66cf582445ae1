"""The three workload parts, their inputs, and what each run measures.

Every run executes all three parts, so that every run reports every
metric. What a run does is a fixed plan (``plan_for``): a fixed set of
seed-drawn inputs per part, each run a fixed number of times. The plan
depends on the workload and on ``--seconds`` only, never on how fast
the code runs, so the number and identity of the timed samples are the
same for the parent and for a change. Every part gets its base units;
the workload adds as many steps of its extension (``EXTENDS``) as the
seconds left over pay for, at the baseline unit costs in
``UNIT_COST_S``. The units of every part are spread evenly over the
run (``schedule``), so that the repeats of one input meet different
moments of the host.

An end-to-end figure is a statistic over the inputs of each input's
fastest repeat: the fastest of an instance's decompositions, of a
beta's certify calls, of a CLI command's processes. It is never a best
over different inputs. The host this was built on runs our code up to
1.7 times slower for seconds at a time, so one input's repeats are
placed far apart in the run and its fastest repeat is the one least
disturbed. A timed call's result is always checked by the gate,
outside the timed region.

* decompose: Frank-Tardos at n=12 and lll_rows at n=20, each one
  instance repeated; the shorter n=20 call more often.
* certify: one n=10 instance decomposed in set-up, passes over a fixed
  block of betas (uniform, feasible a.x, out of range), each pass in its
  own order and spread over the run, and sampled coverage calls.
* cli: n=10 instances through ``python -m sscert`` processes:
  generate, decompose, one certify process per beta, one verify
  process per certificate; the certify and verify steps are repeated
  more often than the whole chain.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import gate as G

clock = time.perf_counter

# scope -> (decomposition, n): the instances the decompose part times
SHAPES = {"ft12": ("decompose_frank_tardos", 12), "rows20": ("decompose_lll_rows", 20)}
PIPE_N = 10
# The block of betas every certify pass runs. Uniform betas on
# [0, ||a||_1] are the paper's distribution, the one coverage_stats
# draws. They are almost never feasible (2^n subset sums in a range of
# about 2^(2n^2)), so feasible betas a.x are planted to probe the
# no_certificate path, and out-of-range betas the trivially infeasible
# one. Each probe kind gets PROBES betas, the same floor of 10 samples
# the tail rule uses; together they are 4% of the block. A beta's
# figure is its fastest of CERTIFY_PASSES calls, which is only as good
# as the chance that one of them meets a fast moment of the host, so
# the block is kept to 500 betas and passed over 40 times.
BLOCK_UNIFORM = 480
PROBES = 10
BLOCK_BETAS = BLOCK_UNIFORM + 2 * PROBES
CLI_CHAINS = 2  # full process chains of each CLI instance
CLI_REPEATS = 5  # certify and verify processes of each CLI beta, the chains' included
CERTIFY_PASSES = 40
COVERAGE_CALLS = 4
COVERAGE_SAMPLES = 2000
HOST_PROBES = 8
# Units every run gets, and about the seconds one unit takes at the
# benchmark's first commit on the host the README names; its slow
# phases stretch them by up to a fifth. The costs only size the plan
# from --seconds; the plan never depends on a measured speed.
BASE_UNITS = {"ft12": 3, "rows20": 5, "certify": 1, "cli": 1}
UNIT_COST_S = {  # a decompose unit is one decomposition of its shape
    "ft12": 4.3,
    "rows20": 2.6,
    "certify": 6.7,  # CERTIFY_PASSES passes over the beta block and COVERAGE_CALLS coverage calls
    "cli": 7.5,  # one instance: CLI_CHAINS process chains, CLI_REPEATS certify and verify rounds
}
# workload -> the units one step of its extension adds
EXTENDS = {"decompose": {"rows20": 1}, "cli_pipeline": {"cli": 1, "rows20": 1}}
PROCESS_TIMEOUT_S = 60
EXTRA_REPEATS = 5  # repeats of each traced-only measurement
TAIL_LADDER = (99.9, 99.0, 98.0, 90.0, 50.0)
HOST_PROBE_MODULUS = (1 << 255) - 19
OVERHEAD_BETAS = 200  # certify calls per pass of the tracing-overhead check
OVERHEAD_PAIRS = 20


@dataclass(frozen=True)
class Plan:
    ft12: int  # decompositions of each shape's instance (SHAPES)
    rows20: int
    certify: int  # certify units: passes over the beta block and coverage calls
    cli: int  # CLI instances


def plan_for(workload: str, seconds: float) -> Plan:
    """The base units, and as many whole steps of the workload's extension as the spare seconds pay for."""
    def cost(units):
        return sum(n * UNIT_COST_S[part] for part, n in units.items())

    units = dict(BASE_UNITS)
    step = EXTENDS[workload]
    steps = max(0, math.floor((seconds - cost(units)) / cost(step)))
    for part, n in step.items():
        units[part] += steps * n
    return Plan(**units)


def schedule(plan: Plan) -> list[tuple[str, int, int]]:
    """Every unit of the run as (part, input, repeat), each part's units spread evenly over the run.

    A certify unit is one beta; each pass takes the block in its own
    fixed order, so that one beta's repeats fall at unrelated moments.
    """
    units = {
        **{scope: [(0, r) for r in range(getattr(plan, scope))] for scope in SHAPES},
        "certify": [(i, r) for r in range(plan.certify * CERTIFY_PASSES)
                    for i in random.Random(r).sample(range(BLOCK_BETAS), BLOCK_BETAS)],
        "coverage": [(0, r) for r in range(plan.certify * COVERAGE_CALLS)],
        "cli": [(i, r) for r in range(CLI_REPEATS) for i in range(plan.cli)],
        "host_probe": [(0, r) for r in range(HOST_PROBES)],
    }
    keyed = [
        ((j + 0.5) / len(items), order, part, i, r)
        for order, (part, items) in enumerate(units.items())
        for j, (i, r) in enumerate(items)
    ]
    return [(part, i, r) for _, _, part, i, r in sorted(keyed)]


@dataclass
class Inputs:
    shapes: dict  # scope -> its instance, one per entry of SHAPES
    inst: object  # the certify block's n=10 instance
    dec: object  # and its decomposition
    block: list  # (kind, beta) pairs, the same in every certify pass
    coverage_seed: int
    cli: list  # (seed, instance, [(kind, beta), ...])


def _subset_sum(rnd, a):
    return sum(ai for ai in a if rnd.getrandbits(1))


def _out_of_range(rnd, total):
    """PROBES betas outside [0, total], half on each side, the edges -1 and total+1 included."""
    below = [-1] + [-2 - rnd.randrange(total) for _ in range(PROBES // 2 - 1)]
    above = [total + 1] + [total + 2 + rnd.randrange(total) for _ in range(PROBES - len(below) - 1)]
    return below + above


def _block(rnd, a):
    total = sum(a)
    block = [(G.UNIFORM, rnd.randint(0, total)) for _ in range(BLOCK_UNIFORM)]
    block += [(G.FEASIBLE, _subset_sum(rnd, a)) for _ in range(PROBES)]
    block += [(G.OUT_OF_RANGE, beta) for beta in _out_of_range(rnd, total)]
    rnd.shuffle(block)
    return block


def make_inputs(m, seed: int, plan: Plan) -> Inputs:
    """Every input of a run, drawn from the workload seed.

    Each kind of input has its own stream, so one seed gives the same
    instances whatever the plan's sizes.
    """
    def stream(tag):
        return random.Random(f"{seed}/{tag}")

    gen = m.model.generate_instance
    shapes = {scope: gen(n, stream(scope).getrandbits(63)) for scope, (_, n) in SHAPES.items()}
    rnd = stream("certify")
    inst = gen(PIPE_N, rnd.getrandbits(63))
    dec = m.decompose.decompose_frank_tardos(inst)
    block = _block(rnd, inst.a)
    coverage_seed = rnd.getrandbits(63)
    rnd = stream("cli")
    cli = []
    for _ in range(plan.cli):
        # One certify process per documented outcome: a uniform beta
        # (certified, exit 0; its certificate feeds the verify process),
        # a feasible one (no_certificate, exit 1), an out-of-range one.
        cli_seed = rnd.getrandbits(63)
        cli_inst = gen(PIPE_N, cli_seed)
        total = sum(cli_inst.a)
        betas = [
            (G.UNIFORM, rnd.randint(0, total)),
            (G.FEASIBLE, _subset_sum(rnd, cli_inst.a)),
            (G.OUT_OF_RANGE, total + 1 + rnd.randrange(total)),
        ]
        cli.append((cli_seed, cli_inst, betas))
    return Inputs(shapes, inst, dec, block, coverage_seed, cli)


def median(xs):
    return statistics.median(xs)


def fastest_repeats(repeats: dict) -> list[float]:
    """Each input's fastest repeat, in input order."""
    return [min(times) for _, times in sorted(repeats.items()) if times]


def throughput(xs):
    return len(xs) / sum(xs)


def tail(xs):
    """(percentile, value): the highest ladder percentile with >= 10 samples beyond it."""
    ordered = sorted(xs)
    for pct in TAIL_LADDER:
        if len(ordered) * (1 - pct / 100) >= 10:
            return pct, ordered[math.ceil(pct / 100 * len(ordered)) - 1]
    return 50.0, statistics.median(ordered)


class Bench:
    """One run: inputs, timing samples, the gate, and the optional tracer."""

    def __init__(self, m, inputs: Inputs, gate: G.Gate, tracer, workdir, env):
        self.m = m
        self.inputs = inputs
        self.gate = gate
        self.tracer = tracer
        self.workdir = workdir
        self.env = env
        self.samples: dict[str, list[float]] = defaultdict(list)
        # key -> input -> its repeated timings
        self.repeats: dict[str, dict] = defaultdict(lambda: defaultdict(list))
        self.counts: dict[str, tuple[int, str]] = {}  # name -> (value, unit), first unit of a part
        self.first_pass: dict[int, object] = {}  # beta index -> its first certify result
        self.coverage_ref = None
        self.cli_refs: dict[int, tuple] = {}  # CLI instance -> (expected codes, reference documents)
        self.cli_first = None  # the first CLI chain's documents and commands
        self.part_wall: dict[str, float] = defaultdict(float)  # part -> seconds its units took, checks included

    def sample(self, key: str, seconds: float, input_key=None) -> None:
        self.samples[key].append(seconds)
        if input_key is not None:
            self.repeats[key][input_key].append(seconds)

    def scope(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.scope = name

    # -- decompose ------------------------------------------------------

    def decompose_one(self, scope: str, r: int) -> None:
        """Repeat r of the decomposition of one shape of SHAPES."""
        name, inst = SHAPES[scope][0], self.inputs.shapes[scope]
        self.scope(scope)
        try:
            start = clock()
            dec = getattr(self.m.decompose, name)(inst)
            self.sample(scope, clock() - start, 0)
        except Exception as exc:
            self.gate.crashed(name, exc)
            return
        self.scope("check")
        self.gate.record(G.decomposition_problems(inst.a, dec))
        if r == 0:
            self.counts[f"decompose.v_l1_bits.{scope}"] = (sum(dec.v).bit_length(), "bits")
            if scope == "ft12":
                self.counts["decompose.q_bits"] = (dec.provenance.q.bit_length(), "bits")

    # -- certify --------------------------------------------------------

    def certify_beta(self, i: int, r: int) -> None:
        """Beta i of the block in pass r; pass 0 is gated in full, later passes must repeat it."""
        kind, beta = self.inputs.block[i]
        self.scope("certify")
        try:
            start = clock()
            result = self.m.branching.certify(self.inputs.inst.a, self.inputs.dec.v, beta)
            self.sample("certify", clock() - start, i)
        except Exception as exc:
            self.gate.crashed("certify", exc)
            return
        if r == 0:
            self.first_pass[i] = result
            for status in ("certified", "no_certificate", "trivially_infeasible"):
                self.counts.setdefault(f"branching.{status}", (0, "count"))
            name = f"branching.{self.check_beta(kind, beta, result, i)}"
            self.counts[name] = (self.counts[name][0] + 1, "count")
        else:
            same = self.first_pass.get(i) == result
            self.gate.record([] if same else ["certify result differs between passes"])
            if result.certificate is not None:
                self.verify(result.certificate, i)

    def check_beta(self, kind: str, beta: int, result, i=None) -> str:
        """Gate one certify result; re-check and time its certificate's verification."""
        B = self.m.branching
        a, v = self.inputs.inst.a, self.inputs.dec.v
        self.scope("check")
        status = result.status.value
        cert = result.certificate
        witnesses_ok = B.witnesses_consistent(a, v, cert) if cert is not None else None
        problems = G.certify_problems(kind, beta, result, witnesses_ok)
        if kind == G.UNIFORM:
            answer = self.m.oracle.feasible(a, beta)
            problems += G.oracle_problems(a, beta, status == "certified", answer)
        self.gate.record(problems)
        if status == "certified" and cert is not None:
            self.verify(cert, i)
        return status

    def verify(self, cert, i) -> None:
        self.scope("verify")
        try:
            start = clock()
            accepted = self.m.branching.verify_certificate(self.inputs.inst.a, self.inputs.dec.v, cert)
            self.sample("verify", clock() - start, i)
        except Exception as exc:
            self.gate.crashed("verify_certificate", exc)
        else:
            self.gate.record(G.verify_problems(accepted))

    def coverage(self, workers: int, key: str) -> None:
        """One sampled coverage call; every call of a run has the same arguments."""
        dec = self.inputs.dec
        self.scope("coverage")
        try:
            start = clock()
            stats = self.m.branching.coverage_stats(
                self.inputs.inst.a, dec.v, dec.scale, dec.residual, "sampled",
                sample_size=COVERAGE_SAMPLES, seed=self.inputs.coverage_seed,
                workers=workers,
            )
            self.sample(key, clock() - start)
        except Exception as exc:
            self.gate.crashed("coverage_stats", exc)
            return
        problems = G.coverage_problems(stats, COVERAGE_SAMPLES)
        if self.coverage_ref is None:
            self.coverage_ref = (stats.g, stats.b)
        elif (stats.g, stats.b) != self.coverage_ref:
            problems.append("coverage counts differ between identical calls")
        self.gate.record(problems)

    # -- CLI pipeline ---------------------------------------------------

    def process(self, argv):
        """Run one ``python -m sscert`` process; (exit code, wall seconds)."""
        start = clock()
        done = subprocess.run(
            [sys.executable, "-m", "sscert", *argv], env=self.env,
            stdin=subprocess.DEVNULL, capture_output=True, timeout=PROCESS_TIMEOUT_S,
        )
        return done.returncode, clock() - start

    def cli_unit(self, i: int, r: int) -> None:
        try:
            self._cli_unit(i, r)
        except (OSError, subprocess.SubprocessError) as exc:
            self.gate.crashed("CLI process", exc)

    def _cli_unit(self, i: int, r: int) -> None:
        """Repeat r of CLI instance i: a full chain, or after CLI_CHAINS only its certify and verify steps."""
        seed, inst, betas = self.inputs.cli[i]
        d = self.workdir / f"cli{i}-{r}"
        d.mkdir()
        chain = r < CLI_CHAINS
        home = d if chain else self.workdir / f"cli{i}-0"
        inst_path, dec_path = str(home / "instance.json"), str(home / "decomposition.json")
        if chain:
            gen_code, dt = self.process(
                ["generate", "--n", str(PIPE_N), "--seed", str(seed), "-o", inst_path]
            )
            self.sample("cli_step", dt, (i, "generate"))
            dec_code, dt = self.process(["decompose", "--instance", inst_path, "-o", dec_path])
            self.sample("cli_step", dt, (i, "decompose"))
        certifies = []
        for j, (kind, beta) in enumerate(betas):
            out = str(d / f"certify{j}.json")
            argv = ["certify", "--instance", inst_path, "--decomposition", dec_path,
                    "--beta", str(beta), "-o", out]
            code, dt = self.process(argv)
            self.sample("cli_step", dt, (i, f"certify{j}"))
            self.sample("cli_certify", dt, (i, j))
            certifies.append((j, argv, code, out))
        verifies = []
        for j, _, code, out in certifies:
            if code == 0 and self.m.documents.document_kind(_read(out)) == "certificate":
                argv = ["verify", "--instance", inst_path, "--certificate", out]
                vcode, dt = self.process(argv)
                self.sample("cli_step", dt, (i, f"verify{j}"))
                self.sample("cli_verify", dt, (i, j))
                verifies.append((argv, vcode))

        # Checks, untimed: every document against the in-process one.
        self.scope("check")
        if i not in self.cli_refs:
            self.cli_refs[i] = self._cli_references(seed, inst, betas)
        codes, refs = self.cli_refs[i]
        if chain:
            self.gate.record(G.process_problems("generate", gen_code, 0, _read(inst_path), refs["instance"]))
            self.gate.record(G.process_problems("decompose", dec_code, 0, _read(dec_path), refs["decomposition"]))
        for j, _, code, out in certifies:
            self.gate.record(G.process_problems("certify", code, codes[j], _read(out), refs[j]))
        for _, vcode in verifies:
            self.gate.record(G.process_problems("verify", vcode, 0, None, None))
        if i == 0 and r == 0:
            self.cli_first = (inst_path, dec_path, certifies, verifies)
            sizes = defaultdict(int)
            for path in (inst_path, dec_path, *(c[3] for c in certifies)):
                text = _read(path)
                sizes[self.m.documents.document_kind(text)] += len(text.encode())
            for kind, size in sizes.items():
                self.counts[f"documents.bytes.{kind}"] = (size, "bytes")

    def _cli_references(self, seed, inst, betas):
        """(expected certify exit codes, documents) of one CLI instance, computed in-process and gated."""
        M, D, B, docs = self.m.model, self.m.decompose, self.m.branching, self.m.documents
        refs = {"instance": docs.serialize_instance(M.generate_instance(PIPE_N, seed))}
        dec = D.decompose_with_fallback(inst)
        self.gate.record(G.decomposition_problems(inst.a, dec))
        refs["decomposition"] = docs.serialize_decomposition(dec)
        codes = {}
        for j, (kind, beta) in enumerate(betas):
            result = B.certify(inst.a, dec.v, beta)
            witnesses_ok = None
            if result.certificate is not None:
                witnesses_ok = B.witnesses_consistent(inst.a, dec.v, result.certificate)
                refs[j], codes[j] = docs.serialize_certificate(result.certificate, dec.v), 0
            else:
                refs[j] = docs.serialize_certify_status(result.status, beta)
                codes[j] = 1 if result.status.value == "no_certificate" else 0
            self.gate.record(G.certify_problems(kind, beta, result, witnesses_ok))
        return codes, refs

    # -- the run --------------------------------------------------------

    def measure(self, plan: Plan, workers: int) -> None:
        steps = {
            **{scope: lambda i, r, scope=scope: self.decompose_one(scope, r) for scope in SHAPES},
            "certify": self.certify_beta,
            "coverage": lambda i, r: self.coverage(workers, "coverage"),
            "cli": self.cli_unit,
            "host_probe": lambda i, r: self.host_probe(),
        }
        for part, i, r in schedule(plan):
            start = clock()
            steps[part](i, r)
            self.part_wall[part] += clock() - start

    def host_probe(self) -> None:
        """A fixed pure-Python big-integer loop, no sscert code: a gauge of the host's speed."""
        x = 3**200
        start = clock()
        for i in range(20000):
            x = (x * 7 + i) % HOST_PROBE_MODULUS
        self.sample("host_probe", clock() - start)

    def traced_extras(self) -> None:
        """Layer timings only the traced run takes: CLI start-up and documents."""
        self.scope("cli_extras")
        for _ in range(EXTRA_REPEATS):
            self.sample("interpreter", self._python("pass"))
            self.sample("import", self._python("import sscert"))
        if self.cli_first is None:
            return
        inst_path, dec_path, certifies, verifies = self.cli_first
        runs = [(argv, code, out) for _, argv, code, out in certifies]
        for argv, code, out in runs:
            self._in_process(argv, code, out, "in_process_certify")
        for argv, code in verifies:
            self._in_process(argv, code, None, "in_process_verify")
        docs = self.m.documents
        inst_text, dec_text = _read(inst_path), _read(dec_path)
        cert_paths = [out for _, code, out in runs if code == 0
                      and docs.document_kind(_read(out)) == "certificate"]
        self.scope("documents")
        for _ in range(EXTRA_REPEATS):
            start = clock()
            inst, _ = docs.parse_instance(inst_text)
            self.sample("parse_instance", clock() - start)
            start = clock()
            dec = docs.parse_decomposition(dec_text)
            matches = dec.reconstruct_a() == tuple(inst.a)
            self.sample("parse_decomposition", clock() - start)
            start = clock()
            text = docs.serialize_decomposition(dec)
            self.sample("serialize_decomposition", clock() - start)
            problems = [] if matches else ["parsed decomposition does not match the instance"]
            if text != dec_text:
                problems.append("decomposition document does not round-trip")
            self.gate.record(problems)
            for path in cert_paths:
                cert_text = _read(path)
                start = clock()
                docs.parse_certificate(cert_text)
                self.sample("parse_certificate", clock() - start)

    def tracing_overhead(self, traced) -> None:
        """Alternate untraced and traced passes over the same betas; keep each pass's per-call time.

        ``traced`` makes the context manager that installs the spans.
        """
        a, v = self.inputs.inst.a, self.inputs.dec.v
        branching = self.m.branching
        betas = [beta for _, beta in self.inputs.block[:OVERHEAD_BETAS]]
        self.scope("overhead")
        for _ in range(OVERHEAD_PAIRS):
            for key, context in (("untraced_pass", contextlib.nullcontext), ("traced_pass", traced)):
                with context():
                    start = clock()
                    for beta in betas:
                        branching.certify(a, v, beta)
                    self.sample(key, (clock() - start) / len(betas))

    def _python(self, code: str) -> float:
        start = clock()
        done = subprocess.run(
            [sys.executable, "-c", code], env=self.env, stdin=subprocess.DEVNULL,
            capture_output=True, timeout=PROCESS_TIMEOUT_S,
        )
        elapsed = clock() - start
        self.gate.record([] if done.returncode == 0 else [f"python -c {code!r} failed"])
        return elapsed

    def _in_process(self, argv, expected_code, subprocess_out, key) -> None:
        """``sscert.cli.main`` on the same argv, output to a sibling file."""
        argv = list(argv)
        out = None
        if subprocess_out is not None:
            out = subprocess_out + ".in_process"
            argv[argv.index("-o") + 1] = out
        with contextlib.redirect_stderr(io.StringIO()):
            start = clock()
            code = self.m.cli.main(argv)
            self.sample(key, clock() - start)
        reference = _read(subprocess_out) if out is not None else None
        produced = _read(out) if out is not None else None
        self.gate.record(G.process_problems(f"in-process {argv[0]}", code, expected_code,
                                            produced, reference))


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()
