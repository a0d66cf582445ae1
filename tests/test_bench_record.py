"""The committed benchmark trajectory: every BENCH_*.json at the repo root.

Each file is a JSON list of the ``{"report": ...}`` objects that
``perfbench/run.py`` prints, in run order, each tagged with the side
it measured, ``parent`` or ``change``. A report names the sources it
ran by ``src_sha256``, so every figure quoted from it can be traced to
one tree; the runs of one side measured one tree.

The host's speed drifts within a session and between sessions, so the
records chain through their in-session ratios only: each record's
parent tree is the previous record's change tree, and the per-pair
change/parent ratio medians multiply along the chain.
"""

import json
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the metrics whose running product the README quotes
CHAINED = ("certify_p50_us", "verify_per_s")

# label -> why its parent tree is not the previous record's change tree
UNCHAINED = {
    "41": "the parent is the tree after BENCH_40's record, whose change side "
          "ran c4468d2; the two trees differ in docstrings only",
}


def records():
    """(label, runs) of every record, ordered by the number in its label."""
    paths = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    return [(p.stem.split("_")[1], json.loads(p.read_text(encoding="utf-8"))) for p in paths]


def digests(runs):
    """side -> the set of src_sha256 digests its runs name."""
    trees = {}
    for run in runs:
        trees.setdefault(run["side"], set()).add(run["report"]["environment"]["src_sha256"])
    return trees


def ratio_median(runs, metric):
    """Median of change/parent over the pairs of runs matched by workload and seed."""
    pairs = {}
    for run in runs:
        report = run["report"]
        pairs.setdefault((report["workload"], report["seed"]), {})[run["side"]] = report
    ratios = [
        pair["change"]["end_to_end"][metric]["value"]
        / pair["parent"]["end_to_end"][metric]["value"]
        for pair in pairs.values()
        if len(pair) == 2
    ]
    return statistics.median(ratios)


def running_product(metric):
    """(label, ratio median, product so far) of every record, in label order."""
    product, out = 1.0, []
    for label, runs in records():
        ratio = ratio_median(runs, metric)
        product *= ratio
        out.append((label, ratio, product))
    return out


def test_every_record_parses_and_names_its_sources():
    assert records()
    for label, runs in records():
        assert isinstance(runs, list) and runs, label
        for run in runs:
            assert set(run) == {"report", "side"}, (label, sorted(run))
            digest = run["report"]["environment"]["src_sha256"]
            assert isinstance(digest, str) and digest, label
        trees = digests(runs)
        assert set(trees) <= {"parent", "change"}, (label, sorted(trees))
        assert all(len(d) == 1 for d in trees.values()), (label, trees)


def test_records_chain_parent_to_previous_change():
    chain = [(label, digests(runs)) for label, runs in records()]
    for (_, before), (label, trees) in zip(chain, chain[1:]):
        if label in UNCHAINED:
            assert trees["parent"] != before["change"], label  # a stale reason
            continue
        assert trees["parent"] == before["change"], label
    assert set(UNCHAINED) <= {label for label, _ in chain[1:]}


def test_running_product_through_bench_40():
    # the figures ROADMAP's re-anchor read off BENCH_36 to BENCH_40
    for metric, want in (("certify_p50_us", 0.872), ("verify_per_s", 1.028)):
        through_40 = [product for label, _, product in running_product(metric) if label == "40"]
        assert [round(p, 3) for p in through_40] == [want], metric


def test_readme_quotes_the_running_product():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    first, last = records()[0][0], records()[-1][0]
    assert f"`BENCH_{first}` to `BENCH_{last}`" in readme
    for metric in CHAINED:
        quoted = re.search(rf"`{metric}` × ([0-9.]+)", readme)
        assert quoted, metric
        assert quoted.group(1) == f"{running_product(metric)[-1][2]:.3f}", metric
