"""The int and gmpy2 mpz backends of the kernel must agree bit for bit."""

import random

import pytest

from sscert import _lll_py

try:
    from gmpy2 import mpz
except ImportError:
    mpz = None


def random_cols(rnd, d, bits):
    return [
        [rnd.getrandbits(bits) - (1 << (bits - 1)) for _ in range(d)] for _ in range(d)
    ]


def normalize(result):
    b, u, uinv, lam, dvec, swaps, redis = result
    return (
        [[int(x) for x in col] for col in b],
        [[int(x) for x in col] for col in u],
        [[int(x) for x in row] for row in uinv],
        [[int(x) for x in row] for row in lam],
        [int(x) for x in dvec],
        swaps,
        redis,
    )


@pytest.mark.skipif(mpz is None, reason="gmpy2 not installed")
def test_int_and_mpz_backends_agree():
    rnd = random.Random(62)
    checked = 0
    while checked < 25:
        d = rnd.randint(2, 6)
        cols = random_cols(rnd, d, 24)
        try:
            plain = _lll_py.lll_reduce_ints(cols, 3, 4)
        except ValueError:
            continue
        as_mpz = [[mpz(x) for x in col] for col in cols]
        wrapped = _lll_py.lll_reduce_ints(as_mpz, mpz(3), mpz(4))
        assert normalize(plain) == normalize(wrapped)
        checked += 1


def test_kernel_name_reports_active_module():
    from sscert.lll import kernel_name

    assert kernel_name() == "python"
