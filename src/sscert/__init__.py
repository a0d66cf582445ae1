"""Branching-hyperplane infeasibility certificates for low density subset sum.

A right-hand side beta of a.x = beta, x in {0,1}^n is certified
infeasible by exhibiting an integral direction v whose LP range over
the relaxation is trapped strictly between consecutive integers. The
direction comes from exact LLL-based diophantine approximation of a,
and every quantitative claim is checkable against a brute-force oracle
at desk scale. All arithmetic is exact (big integers and fractions).
"""

from .branching import (
    Certificate,
    CertifyResult,
    CertifyStatus,
    CoverageStats,
    IntervalCover,
    certify,
    coverage_stats,
    enumerate_intervals,
    lp_extreme_eq,
    lp_extreme_ineq,
    verify_certificate,
    witnesses_consistent,
)
from .decompose import (
    Decomposition,
    Method,
    decompose_frank_tardos,
    decompose_lll_rows,
    decompose_with_fallback,
    project_onto,
)
from .diophantine import ApproxResult, build_approx_lattice, choose_precision, dioph_approx
from .lll import Basis, GramSchmidt, ReducedBasis, gram_schmidt, is_reduced, kernel_name, lll_reduce
from .model import Instance, generate_instance
from .oracle import (
    FeasibilityAnswer,
    InfeasibleCoverageReport,
    all_feasible_sums,
    check_good_intervals,
    feasible,
    infeasible_coverage_report,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxResult",
    "Basis",
    "Certificate",
    "CertifyResult",
    "CertifyStatus",
    "CoverageStats",
    "Decomposition",
    "FeasibilityAnswer",
    "GramSchmidt",
    "InfeasibleCoverageReport",
    "Instance",
    "IntervalCover",
    "Method",
    "ReducedBasis",
    "all_feasible_sums",
    "build_approx_lattice",
    "certify",
    "check_good_intervals",
    "choose_precision",
    "coverage_stats",
    "decompose_frank_tardos",
    "decompose_lll_rows",
    "decompose_with_fallback",
    "dioph_approx",
    "enumerate_intervals",
    "feasible",
    "generate_instance",
    "gram_schmidt",
    "infeasible_coverage_report",
    "is_reduced",
    "kernel_name",
    "lll_reduce",
    "lp_extreme_eq",
    "lp_extreme_ineq",
    "project_onto",
    "verify_certificate",
    "witnesses_consistent",
]
