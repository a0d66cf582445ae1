"""Layer spans recorded from outside the package.

Tracing replaces public functions of the sscert modules with timing
wrappers for the duration of a ``traced()`` block and restores them
afterwards. Every wrapper records, per (scope, span name), the wall
time of each call and its self time: the wall time minus the part its
traced children covered. The scope is a label the benchmark sets
around each workload part ("ft12", "certify", ...), so one layer can be
read per lattice shape or per part.

A function is patched at every module attribute the package looks it
up through, because sscert modules import each other's functions by
name (``decompose.dioph_approx`` is the same object as
``diophantine.dioph_approx``). With tracing off nothing is patched.
"""

from __future__ import annotations

import contextlib
import functools
import time
import types
from array import array
from collections import defaultdict

# span name -> module attributes that reach the function, the first
# being the defining module.
PATCH_POINTS = {
    "model.generate_instance": ["model.generate_instance"],
    "diophantine.build_approx_lattice": ["diophantine.build_approx_lattice"],
    "diophantine.dioph_approx": ["diophantine.dioph_approx", "decompose.dioph_approx"],
    "lll.lll_reduce": ["lll.lll_reduce", "diophantine.lll_reduce", "decompose.lll_reduce"],
    "decompose.decompose_frank_tardos": ["decompose.decompose_frank_tardos"],
    "decompose.decompose_lll_rows": ["decompose.decompose_lll_rows"],
    "branching.certify": ["branching.certify", "cli.certify"],
    "branching.lp_extreme_eq": ["branching.lp_extreme_eq"],
    "branching.verify_certificate": ["branching.verify_certificate", "cli.verify_certificate"],
    "branching.lp_extreme_ineq": ["branching.lp_extreme_ineq"],
    "branching.coverage_stats": ["branching.coverage_stats", "cli.coverage_stats"],
    "documents.parse_instance": ["documents.parse_instance"],
    "documents.parse_decomposition": ["documents.parse_decomposition"],
    "documents.serialize_decomposition": ["documents.serialize_decomposition"],
    "documents.parse_certificate": ["documents.parse_certificate"],
}
KERNEL_SPAN = "lll.kernel"
KEPT_SPAN = "lll.lll_reduce"  # its inputs and results are kept for the counts


class Tracer:
    """Per-(scope, name) arrays of call wall and self times, in seconds."""

    def __init__(self):
        self.scope = "setup"
        self.wall: dict[tuple[str, str], array] = defaultdict(lambda: array("d"))
        self.self: dict[tuple[str, str], array] = defaultdict(lambda: array("d"))
        self.kept: list[tuple] = []  # (scope, input basis, ReducedBasis) per lll_reduce
        self._children: list[float] = []

    def wrap(self, name, fn):
        clock = time.perf_counter
        children = self._children

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if name == KEPT_SPAN:
                    self.kept.append((self.scope, args[0], result))
                return result
            finally:
                elapsed = clock() - start
                covered = children.pop()
                if children:
                    children[-1] += elapsed
                key = (self.scope, name)
                self.wall[key].append(elapsed)
                self.self[key].append(elapsed - covered)

        return traced

    def walls(self, scope, name):
        return list(self.wall.get((scope, name), ()))

    def selfs(self, scope, name):
        return list(self.self.get((scope, name), ()))

    def self_total(self, scope):
        return sum(sum(v) for (s, _), v in self.self.items() if s == scope)


@contextlib.contextmanager
def traced(sscert_modules: dict, tracer: Tracer | None):
    """Install the wrappers on the given sscert modules while the block runs.

    ``sscert_modules`` maps short module names ("lll", "branching", ...)
    to the imported modules. With ``tracer=None`` this does nothing.
    """
    if tracer is None:
        yield
        return
    saved = []
    try:
        for name, points in PATCH_POINTS.items():
            home, attr = points[0].split(".")
            wrapper = tracer.wrap(name, getattr(sscert_modules[home], attr))
            for point in points:
                mod_name, attr = point.split(".")
                module = sscert_modules[mod_name]
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
        lll = sscert_modules["lll"]
        kernel = lll._kernel
        proxy = types.SimpleNamespace(
            KERNEL_NAME=kernel.KERNEL_NAME,
            lll_reduce_ints=tracer.wrap(KERNEL_SPAN, kernel.lll_reduce_ints),
        )
        saved.append((lll, "_kernel", kernel))
        lll._kernel = proxy
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
