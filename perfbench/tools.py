#!/usr/bin/env python3
"""Checks on the benchmark itself, each made of sequential run.py runs.

    python3 perfbench/tools.py spread --workload decompose --seeds 1-10 --save a.json
    python3 perfbench/tools.py compare a.json b.json
    python3 perfbench/tools.py repro --workload decompose --seed 7

``spread`` gives, per end-to-end metric, the distance between the first
and third quartile of the per-seed values as a share of their median,
next to the metric's bound from BENCHMARK.json. ``compare`` checks that
the second set's medians are no worse than the first's by more than
the bound. ``repro`` runs the traced run twice with one seed and
requires the deterministic counts to repeat exactly. The tracing
overhead is a per-layer metric of the traced run itself
(``trace.certify_overhead_us``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
DETERMINISTIC = (
    "lll.swaps.", "lll.size_reductions.", "branching.certified",
    "branching.no_certificate", "branching.trivially_infeasible",
    "decompose.q_bits", "documents.bytes.",
)


def config():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace, seconds=None):
    """One benchmark run; (report, result) from its last two lines."""
    seconds = seconds or config()["run_seconds"]
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.exit(f"run failed ({done.returncode}): {done.stderr[-2000:]}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cmd_spread(args):
    bounds = {m["name"]: m["bound"] for m in config()["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        report, result = run(args.workload, seed, 0)
        if not result["correct"]:
            sys.exit(f"seed {seed}: {result['failed']} failed checks")
        for name, metric in report["end_to_end"].items():
            values.setdefault(name, []).append(metric["value"])
        values.setdefault("host_probe_ms", []).append(report["host_probe_ms"])
        values.setdefault("wall_s", []).append(report["wall_s"])
        print(f"seed {seed}: wall_s={report['wall_s']:.1f} host_probe_ms={report['host_probe_ms']:.4g} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in report["end_to_end"].items()), flush=True)
    print(f"{'metric':24s} {'median':>12s} {'spread':>8s} {'bound':>6s}  within a third")
    for name, vals in values.items():
        s, b = spread(vals), bounds.get(name)
        verdict = "not bounded" if b is None else s < b / 3
        print(f"{name:24s} {statistics.median(vals):12.6g} {s:8.4f} {b or 0:6.2f}  {verdict}")
    if args.save:
        Path(args.save).write_text(json.dumps({"workload": args.workload, "values": values}))


def cmd_compare(args):
    bounds = {m["name"]: (m["bound"], m["better"]) for m in config()["end_to_end"]}
    first, second = (json.loads(Path(p).read_text()) for p in (args.first, args.second))
    ok = True
    for name, (bound, better) in bounds.items():
        a = statistics.median(first["values"][name])
        b = statistics.median(second["values"][name])
        worse = (b - a) / a if better == "lower" else (a - b) / a
        ok &= worse <= bound
        print(f"{name:24s} {a:12.6g} {b:12.6g} worse by {worse:+.4f} (bound {bound})")
    sys.exit(0 if ok else 1)


def cmd_repro(args):
    counts = []
    for _ in range(2):
        _, result = run(args.workload, args.seed, 1)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if k.startswith(DETERMINISTIC)})
    for name in sorted(counts[0]):
        print(f"{name:36s} {counts[0][name]:>10} {counts[1].get(name)!s:>10}")
    same = counts[0] == counts[1]
    print("deterministic counts repeat exactly" if same else "deterministic counts DIFFER")
    sys.exit(0 if same else 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--save")
    p.set_defaults(fn=cmd_spread)
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=cmd_compare)
    p = sub.add_parser("repro")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=cmd_repro)
    args = parser.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    main()
