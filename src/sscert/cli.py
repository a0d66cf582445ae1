"""Command-line pipeline: generate, decompose, certify, verify, report.

Exit codes: 0 success or verified, 1 verification rejected or no
certificate, 2 usage error, 3 capacity error, 4 internal error (a bug:
a failed internal invariant or any other unexpected exception).
Documents go to stdout (or --output); identical configurations produce
byte-identical documents. Diagnostics are single lines on stderr. A
decomposition whose lambda v + r is not the instance's a exits 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import documents
from .branching import (
    CertifyStatus,
    Claim,
    certify,
    coverage_stats,
    enumerate_intervals,
    verify_certificate,
)
from .decompose import LLL_ROWS_MAX_N, Method, decompose_with_fallback
from .errors import (
    CapacityError,
    DomainError,
    Error,
    InvariantViolation,
    ParseError,
)
from .model import Instance, generate_instance

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _diag(message: str) -> None:
    print(f"sscert: {message}", file=sys.stderr)


def _load_instance(config: argparse.Namespace) -> tuple[Instance, int]:
    return documents.parse_instance(_read(config.instance))


def _load_decomposition(config: argparse.Namespace, inst: Instance):
    dec = documents.parse_decomposition(_read(config.decomposition))
    if dec.reconstruct_a() != tuple(inst.a):
        raise DomainError("decomposition does not match the instance weights")
    return dec


def _cmd_generate(config: argparse.Namespace) -> int:
    n = documents.parse_int(config.n, "n")
    if n > LLL_ROWS_MAX_N:
        raise CapacityError(f"n {n} exceeds the limit {LLL_ROWS_MAX_N}")
    seed = documents.parse_int(config.seed, "seed")
    if not 0 <= seed < 1 << 64:  # SplitMix64 would mask it to 64 bits
        raise DomainError("seed must lie in [0, 2^64)")
    _emit(documents.serialize_instance(generate_instance(n, seed)), config.output)
    return EXIT_OK


def _cmd_decompose(config: argparse.Namespace) -> int:
    inst, _ = _load_instance(config)
    dec = decompose_with_fallback(inst, Method(config.method))
    _emit(documents.serialize_decomposition(dec), config.output)
    return EXIT_OK


def _cmd_certify(config: argparse.Namespace) -> int:
    """Certify beta / g against a / g; every document names beta as asked."""
    beta = documents.parse_int(config.beta, "beta")
    inst, divisor = _load_instance(config)
    dec = _load_decomposition(config, inst)
    if beta % divisor != 0:
        status = CertifyStatus.TRIVIALLY_INFEASIBLE_GCD
        _emit(documents.serialize_certify_status(status, beta), config.output)
        return EXIT_OK
    result = certify(inst.a, dec.v, beta // divisor)
    if result.status is CertifyStatus.CERTIFIED:
        claim = Claim(beta, result.certificate.level)
        _emit(documents.serialize_certificate(claim, dec.v), config.output)
        return EXIT_OK
    _emit(documents.serialize_certify_status(result.status, beta), config.output)
    if result.status is CertifyStatus.NO_CERTIFICATE:
        return EXIT_REJECTED
    return EXIT_OK


def _cmd_verify(config: argparse.Namespace) -> int:
    """Check the certificate's beta against a: as beta / g against a / g."""
    inst, divisor = _load_instance(config)
    try:
        claim, v = documents.parse_certificate(_read(config.certificate))
    except ParseError as exc:
        _diag(f"certificate rejected: {exc}")
        return EXIT_REJECTED
    if claim.beta % divisor != 0:
        _diag(f"rejected: the weights' gcd {divisor} does not divide beta")
        return EXIT_REJECTED
    if verify_certificate(inst.a, v, Claim(claim.beta // divisor, claim.level)):
        _diag("verified")
        return EXIT_OK
    _diag("rejected")
    return EXIT_REJECTED


def _cmd_intervals(config: argparse.Namespace) -> int:
    inst, _ = _load_instance(config)
    dec = _load_decomposition(config, inst)
    k_lo = documents.parse_int(config.k_lo, "k_lo") if config.k_lo is not None else 0
    k_hi = documents.parse_int(config.k_hi, "k_hi") if config.k_hi is not None else None
    cover = enumerate_intervals(inst.a, dec.v, k_lo=k_lo, k_hi=k_hi)
    _emit(documents.serialize_interval_cover(cover), config.output)
    return EXIT_OK


def _cmd_stats(config: argparse.Namespace) -> int:
    inst, _ = _load_instance(config)
    dec = _load_decomposition(config, inst)
    stats = coverage_stats(inst.a, dec.v, dec.scale, dec.residual, "exact")
    _emit(documents.serialize_coverage_stats(stats), config.output)
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "decompose": _cmd_decompose,
    "certify": _cmd_certify,
    "verify": _cmd_verify,
    "intervals": _cmd_intervals,
    "stats": _cmd_stats,
}


def run(config: argparse.Namespace) -> int:
    """Execute one command; returns the process exit code."""
    try:
        return _COMMANDS[config.command](config)
    except CapacityError as exc:
        _diag(str(exc))
        return EXIT_CAPACITY
    except InvariantViolation as exc:
        _diag(f"internal error: {exc}")
        return EXIT_INTERNAL
    except (Error, OSError, UnicodeDecodeError) as exc:
        _diag(str(exc))
        return EXIT_USAGE
    except Exception as exc:
        _diag(f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sscert",
        description="infeasibility certificates for low density subset sum",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output", "-o", default=None, help="output path (default stdout)")

    def add_instance(p):
        p.add_argument("--instance", required=True, help="instance document path or -")

    p = sub.add_parser("generate", help="generate a low density instance")
    p.add_argument("--n", required=True, help=f"2 to {LLL_ROWS_MAX_N}, decimal string")
    p.add_argument("--seed", required=True, help="0 to 2^64 - 1, decimal string")
    add_common(p)

    p = sub.add_parser("decompose", help="compute the branching direction")
    add_instance(p)
    p.add_argument(
        "--method",
        choices=[m.value for m in Method],
        default=Method.FRANK_TARDOS.value,
    )
    add_common(p)

    p = sub.add_parser("certify", help="certify one right-hand side")
    add_instance(p)
    p.add_argument("--decomposition", required=True)
    p.add_argument("--beta", required=True, help="right-hand side, decimal string")
    add_common(p)

    # verify writes no document, only its verdict to stderr and its exit code
    p = sub.add_parser("verify", help="verify a certificate document")
    add_instance(p)
    p.add_argument("--certificate", required=True)

    p = sub.add_parser("intervals", help="enumerate bad/good intervals")
    add_instance(p)
    p.add_argument("--decomposition", required=True)
    p.add_argument("--k-lo", dest="k_lo", default=None, help="decimal string")
    p.add_argument("--k-hi", dest="k_hi", default=None, help="decimal string")
    add_common(p)

    p = sub.add_parser(
        "stats", help="exact coverage: bad share, Corollary 1, least good length"
    )
    add_instance(p)
    p.add_argument("--decomposition", required=True)
    add_common(p)

    return parser


def main(argv=None) -> int:
    return run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
