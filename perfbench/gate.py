"""The benchmark's correctness gate.

Every operation the benchmark times (a decomposition, a certify call, a
verify call, a coverage call, a CLI process) is one attempt. An attempt
fails when any of its checks finds a problem or when the call raises.
The check functions return a list of problems, empty when all hold, so
that a test can feed them forged results.
"""

from __future__ import annotations

import math
import sys
import traceback
from collections import Counter

UNIFORM = "uniform"
FEASIBLE = "feasible"
OUT_OF_RANGE = "out_of_range"


class Gate:
    """Failures counted against attempts, with the reasons seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter[str] = Counter()

    def record(self, problems) -> bool:
        """Count one attempt; returns True when it passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.update(problems)
            return False
        return True

    def crashed(self, what: str, exc: BaseException) -> None:
        """Count one attempt that raised instead of returning."""
        traceback.print_exception(exc, file=sys.stderr)
        self.record([f"{what} raised {type(exc).__name__}"])


def decomposition_problems(a, dec) -> list[str]:
    problems = []
    if dec.reconstruct_a() != tuple(a):
        problems.append("decomposition does not reconstruct a")
    if min(dec.v) < 0:
        problems.append("direction has a negative component")
    if not all(check.holds for check in dec.bounds):
        problems.append("a decomposition bound check fails")
    return problems


def certify_problems(kind, beta, result, witnesses_ok) -> list[str]:
    """Status expected for the kind of beta; certificate self-consistency.

    ``witnesses_ok`` is the verdict of ``witnesses_consistent`` on the
    certificate, or None when there is no certificate.
    """
    status = result.status.value
    problems = []
    if result.beta != beta:
        problems.append("certify result names another beta")
    if kind == FEASIBLE and status != "no_certificate":
        problems.append(f"feasible beta came back {status}")
    elif kind == OUT_OF_RANGE and status != "trivially_infeasible":
        problems.append(f"out-of-range beta came back {status}")
    elif kind == UNIFORM and status not in ("certified", "no_certificate"):
        problems.append(f"in-range beta came back {status}")
    if status == "certified":
        cert = result.certificate
        if cert is None or cert.beta != beta:
            problems.append("certificate missing or for another beta")
        elif not witnesses_ok:
            problems.append("certificate witnesses inconsistent")
    return problems


def verify_problems(accepted: bool) -> list[str]:
    return [] if accepted else ["verify_certificate rejects a certificate"]


def oracle_problems(a, beta, certified: bool, answer) -> list[str]:
    """Cross-check of a certify verdict with the subset sum oracle."""
    if answer.feasible:
        if sum(ai * xi for ai, xi in zip(a, answer.witness)) != beta:
            return ["oracle witness does not sum to beta"]
        if certified:
            return ["a feasible beta was certified"]
    return []


# A sampled coverage count is refuted when it is less likely than this
# under the paper's bound on the uncertified share.
COVERAGE_ALPHA = 1e-9


def coverage_problems(stats, sample_size: int) -> list[str]:
    """Sampled coverage: counts add up, and the uncertified count is not refuted by the bound.

    Uniform draws land in the bad intervals with probability at most
    ``bad_fraction_bound``, so the uncertified count is at most a
    Binomial(sample_size, bound) draw. One uncertified draw in 2000 at
    a bound of 5e-6 happens in about 1% of calls; the check fails only
    when the count is less likely than ``COVERAGE_ALPHA``.
    """
    problems = []
    if stats.g + stats.b != sample_size or stats.sample_size != sample_size:
        problems.append("coverage counts do not add up to the sample size")
    if binomial_tail(sample_size, float(stats.bad_fraction_bound), stats.b) < COVERAGE_ALPHA:
        problems.append("uncertified share far above the coverage bound")
    return problems


def binomial_tail(n: int, p: float, k: int) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    if k <= 0 or p >= 1:
        return 1.0
    if p <= 0:
        return 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    return min(1.0, sum(
        math.exp(math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * log_p + (n - j) * log_q)
        for j in range(k, n + 1)
    ))


def process_problems(what, code, expected_code, produced, reference) -> list[str]:
    """A CLI process: its exit code, and its document against the in-process one."""
    problems = []
    if code != expected_code:
        problems.append(f"{what} exited {code}, expected {expected_code}")
    if reference is not None and produced != reference:
        problems.append(f"{what} document differs from the in-process document")
    return problems
