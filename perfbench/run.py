#!/usr/bin/env python3
"""sscert benchmark: decompose and cli_pipeline workloads, each running every part.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 52 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` of that checkout, never from anywhere else, and the run exits
with code 2 and prints no result when it is missing. Every input is
drawn from ``--seed``. Every run executes all three parts on a fixed
plan (see parts.py); the workload names the part that gets the units
the spare ``--seconds`` pay for. ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones, taken with the sscert
functions wrapped in timing spans.

Output: a readable table, one ``{"report": ...}`` line with every
metric, its sample count, the gate's reasons and the environment, and
as the last line ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 when every correctness check passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import types
from collections import defaultdict
from pathlib import Path

import gate
import parts
import spans

clock = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = tuple(parts.EXTENDS)
MODULES = ("model", "lll", "diophantine", "decompose", "branching", "oracle", "documents", "cli")
SETUP_REPEATS = 3
COVERAGE_SERIAL_CALLS = 3
# Printed and reported, but left out of the result line and of
# BENCHMARK.json: their ten-seed spread on the reference host reached
# the largest bound the format allows (README, baseline).
UNRESOLVED = ("decompose_ft_s", "decompose_rows_s", "coverage_sampled_s", "cli_pipeline_s",
              "cli_certify_p50_ms", "cli_verify_p50_ms")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_sscert():
    """Import the package from this checkout's src/; (modules, import seconds)."""
    if not (SRC / "sscert" / "__init__.py").is_file():
        fail(f"no sscert package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    start = clock()
    import sscert

    modules = {name: importlib.import_module(f"sscert.{name}") for name in MODULES}
    elapsed = clock() - start
    if Path(sscert.__file__).resolve().parent != SRC / "sscert":
        fail(f"sscert imported from {sscert.__file__}, not from {SRC}")
    return sscert, modules, elapsed


def environment(sscert, lll) -> dict:
    try:
        import gmpy2  # noqa: F401

        gmpy2_imports = True
    except ImportError:
        gmpy2_imports = False
    digest = hashlib.sha256()
    for path in sorted((SRC / "sscert").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "kernel": sscert.kernel_name(),
        "big_int": getattr(lll, "_num", int).__name__,
        "gmpy2_imports": gmpy2_imports,
        "SSCERT_BACKEND": os.environ.get("SSCERT_BACKEND"),
        "SSCERT_KERNEL": os.environ.get("SSCERT_KERNEL"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def end_to_end(bench, setup_s) -> dict:
    """name -> (value, unit, samples, note); each figure a statistic of each input's fastest repeat."""
    out = {"setup_s": (setup_s, "s", SETUP_REPEATS, "import + median of the set-ups")}

    def put(name, key, unit, factor, statistic, what):
        fastest = parts.fastest_repeats(bench.repeats[key])
        if fastest:
            samples = len(bench.samples[key])
            out[name] = (statistic(fastest) * factor, unit, samples, f"{what} of {len(fastest)} inputs' fastest repeats")

    put("decompose_ft_s", "ft12", "s", 1, parts.median, "median")
    put("decompose_rows_s", "rows20", "s", 1, parts.median, "median")
    put("certify_per_s", "certify", "1/s", 1, parts.throughput, "calls per second")
    put("certify_p50_us", "certify", "us", 1e6, parts.median, "median")
    fastest = parts.fastest_repeats(bench.repeats["certify"])
    if fastest:
        pct = parts.tail(fastest)[0]
        put("certify_tail_us", "certify", "us", 1e6, lambda xs: parts.tail(xs)[1], f"p{pct:g}")
    put("verify_per_s", "verify", "1/s", 1, parts.throughput, "calls per second")
    calls = bench.samples["coverage"]
    if calls:
        out["coverage_sampled_s"] = (min(calls), "s", len(calls), "fastest of identical calls")
    chains = defaultdict(list)  # CLI instance -> each step's fastest process
    for (i, _), times in bench.repeats["cli_step"].items():
        chains[i].append(min(times))
    if chains:
        value = parts.median([sum(steps) for steps in chains.values()])
        note = f"median over {len(chains)} instances of the sum of each step's fastest process"
        out["cli_pipeline_s"] = (value, "s", len(bench.samples["cli_step"]), note)
    put("cli_certify_p50_ms", "cli_certify", "ms", 1e3, parts.median, "median")
    put("cli_verify_p50_ms", "cli_verify", "ms", 1e3, parts.median, "median")
    for name in UNRESOLVED:
        if name in out:
            value, unit, samples, note = out[name]
            out[name] = (value, unit, samples, note + "; unresolved, not bounded")
    return out


def per_layer(bench, tracer, e2e) -> dict:
    """name -> (value, unit, samples, note), from the spans and the traced-only extras."""
    s, out = bench.samples, {}

    def put(name, values, unit, factor=1.0, note="median"):
        if values:
            out[name] = (parts.median(values) * factor, unit, len(values), note)

    for scope in ("ft12", "rows20"):
        put(f"lll.kernel_s.{scope}", tracer.walls(scope, "lll.kernel"), "s")
        put(f"lll.wrapper_self_s.{scope}", tracer.selfs(scope, "lll.lll_reduce"), "s")
        first = next(((b, r) for sc, b, r in tracer.kept if sc == scope), None)
        if first is not None:
            basis, reduced = first
            for field in ("swaps", "size_reductions", "dim"):
                out[f"lll.{field}.{scope}"] = (getattr(reduced.stats, field), "count", 1, "first instance")
            out[f"lll.input_bits.{scope}"] = (input_bits(basis), "bits", 1, "first instance")
        if s[scope]:
            share = sum(tracer.walls(scope, "lll.kernel")) / sum(s[scope])
            out[f"lll.kernel_share.{scope}"] = (share, "ratio", len(s[scope]), "kernel / decomposition wall")
            cover = tracer.self_total(scope) / sum(s[scope])
            out[f"cover.decompose_{scope}"] = (cover, "ratio", len(s[scope]), "span self times / wall")
    put("diophantine.build_approx_lattice_ms", tracer.walls("ft12", "diophantine.build_approx_lattice"), "ms", 1e3)
    put("diophantine.dioph_approx_s", tracer.walls("ft12", "diophantine.dioph_approx"), "s")
    put("decompose.ft_self_ms", tracer.selfs("ft12", "decompose.decompose_frank_tardos"), "ms", 1e3)
    put("decompose.rows_self_ms", tracer.selfs("rows20", "decompose.decompose_lll_rows"), "ms", 1e3)
    gen = tracer.walls("setup", "model.generate_instance")
    if gen:
        out["model.generate_instance_ms"] = (sum(gen) / SETUP_REPEATS * 1e3, "ms", SETUP_REPEATS, "total per set-up")
    put("branching.certify_self_us", tracer.selfs("certify", "branching.certify"), "us", 1e6)
    put("branching.lp_extreme_eq_us", tracer.walls("certify", "branching.lp_extreme_eq"), "us", 1e6)
    put("branching.verify_certificate_us", tracer.walls("verify", "branching.verify_certificate"), "us", 1e6)
    put("branching.lp_extreme_ineq_us", tracer.walls("verify", "branching.lp_extreme_ineq"), "us", 1e6)
    if s["coverage_serial"]:
        out["branching.coverage_serial_s"] = (min(s["coverage_serial"]), "s", len(s["coverage_serial"]),
                                              "fastest of identical untraced calls at workers=1")
    for key in ("certify", "verify"):
        if s[key]:
            cover = tracer.self_total(key) / sum(s[key])
            out[f"cover.{key}"] = (cover, "ratio", len(s[key]), "span self times / wall")
    put("documents.parse_instance_ms", s["parse_instance"], "ms", 1e3)
    put("documents.parse_decomposition_ms", s["parse_decomposition"], "ms", 1e3)
    put("documents.serialize_decomposition_ms", s["serialize_decomposition"], "ms", 1e3)
    put("documents.parse_certificate_us", s["parse_certificate"], "us", 1e6)
    put("cli.interpreter_ms", s["interpreter"], "ms", 1e3)
    if s["import"] and s["interpreter"]:
        value = (parts.median(s["import"]) - parts.median(s["interpreter"])) * 1e3
        out["cli.import_ms"] = (value, "ms", len(s["import"]), "median import run - median interpreter")
    put("cli.in_process_certify_ms", s["in_process_certify"], "ms", 1e3)
    put("cli.in_process_verify_ms", s["in_process_verify"], "ms", 1e3)
    if s["traced_pass"] and s["untraced_pass"]:
        pairs = [t - u for u, t in zip(s["untraced_pass"], s["traced_pass"])]
        out["trace.certify_overhead_us"] = (parts.median(pairs) * 1e6, "us", len(pairs),
                                            "median over adjacent pairs of traced - untraced pass")
    for kind in ("certify", "verify"):
        pieces = ("cli.interpreter_ms", "cli.import_ms", f"cli.in_process_{kind}_ms")
        whole = e2e.get(f"cli_{kind}_p50_ms")
        if whole and all(p in out for p in pieces):
            share = sum(out[p][0] for p in pieces) / whole[0]
            out[f"cover.cli_{kind}"] = (share, "ratio", whole[2], "interpreter + import + in-process / process")
    for name, (value, unit) in sorted(bench.counts.items()):
        out[name] = (value, unit, 1, "first unit of its part")
    return out


def input_bits(basis) -> int:
    """Bit length of the largest entry of the basis scaled to integers, as lll_reduce scales it."""
    scale = math.lcm(*(x.denominator for col in basis.cols for x in col))
    return max(abs(x.numerator * (scale // x.denominator)).bit_length() for col in basis.cols for x in col)


def print_table(title, metrics) -> None:
    print(title)
    for name, (value, unit, samples, note) in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {unit:6s} n={samples:<7d} {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    run_start = clock()
    sscert, modules, import_s = import_sscert()
    m = types.SimpleNamespace(**modules)
    tracer = spans.Tracer() if args.trace else None
    checks = gate.Gate()
    workers = min(2, len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    bench = None
    plan = parts.plan_for(args.workload, args.seconds)
    try:
        with spans.traced(modules, tracer):
            setup_times = []
            for _ in range(SETUP_REPEATS):
                start = clock()
                inputs = parts.make_inputs(m, args.seed, plan)
                setup_times.append(clock() - start)
            checks.record(gate.decomposition_problems(inputs.inst.a, inputs.dec))
            bench = parts.Bench(m, inputs, checks, tracer, workdir, env)
            bench.measure(plan, workers)
            if tracer is not None:
                bench.traced_extras()
        if tracer is not None:
            # Outside the spans, so that both sides of the pool comparison run untraced.
            for _ in range(COVERAGE_SERIAL_CALLS):
                bench.coverage(1, "coverage_serial")
            bench.tracing_overhead(lambda: spans.traced(modules, tracer))
    except Exception as exc:  # report the run as failed rather than dying without a result
        checks.crashed("benchmark", exc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    e2e, layers = {}, {}
    if bench is not None:
        e2e = end_to_end(bench, import_s + parts.median(setup_times))
        if tracer is not None:
            layers = per_layer(bench, tracer, e2e)
    host_probe_ms = None
    if bench is not None and bench.samples["host_probe"]:
        host_probe_ms = parts.median(bench.samples["host_probe"]) * 1e3
    label = "traced end-to-end" if tracer is not None else "end-to-end"
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} {plan}")
    print_table(label, e2e)
    if layers:
        print_table("per-layer", layers)
    print(f"host probe: {host_probe_ms} ms (median of the probes; not a metric)")
    print(f"gate: {checks.failed} failed of {checks.attempted} attempted")
    for reason, count in checks.reasons.most_common():
        print(f"  {count} x {reason}")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "plan": dataclasses.asdict(plan), "environment": environment(sscert, modules["lll"]),
        "end_to_end": {k: dict(zip(("value", "unit", "samples", "note"), v)) for k, v in e2e.items()},
        "per_layer": {k: dict(zip(("value", "unit", "samples", "note"), v)) for k, v in layers.items()},
        "gate": {"attempted": checks.attempted, "failed": checks.failed, "reasons": dict(checks.reasons)},
        "host_probe_ms": host_probe_ms, "wall_s": clock() - run_start,
        "part_wall_s": dict(bench.part_wall) if bench is not None else {},
    }
    print(json.dumps({"report": report}, sort_keys=True))
    chosen = layers if tracer is not None else e2e
    correct = checks.failed == 0 and bench is not None
    result = {
        "correct": correct,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in chosen.items() if k not in UNRESOLVED},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
