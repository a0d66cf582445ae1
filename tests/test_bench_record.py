"""The committed benchmark trajectory: every BENCH_*.json at the repo root.

Each file is a JSON list of the ``{"report": ...}`` objects that
``perfbench/run.py`` prints, in run order, each tagged with the side
it measured, ``parent`` or ``change``. A report names the sources it
ran by ``src_sha256``, so every figure quoted from it can be traced to
one tree; the runs of one side measured one tree.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_record_parses_and_names_its_sources():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        runs = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(runs, list) and runs, path.name
        trees = {}
        for run in runs:
            assert set(run) == {"report", "side"}, (path.name, sorted(run))
            digest = run["report"]["environment"]["src_sha256"]
            assert isinstance(digest, str) and digest, path.name
            trees.setdefault(run["side"], set()).add(digest)
        assert set(trees) <= {"parent", "change"}, (path.name, sorted(trees))
        assert all(len(digests) == 1 for digests in trees.values()), (path.name, trees)
