import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction
from itertools import product

import pytest

from oracles import validate_direction_gen, validate_weights_gen
from sscert.errors import DomainError
from sscert.model import (
    Direction,
    Instance,
    Weights,
    generate_instance,
    validate_direction,
    validate_weights,
)
from sscert.rng import SplitMix64, mix64, substream_seed


class TestRng:
    def test_published_splitmix64_vector(self):
        # reference sequence for seed 0 from the SplitMix64 authors
        s = SplitMix64(0)
        assert [s.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_determinism_and_substreams(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
        assert substream_seed(42, 0) != substream_seed(42, 1)
        assert substream_seed(42, 3) == substream_seed(42, 3)

    def test_randbits_range(self):
        rng = SplitMix64(7)
        for bits in (1, 63, 64, 65, 200):
            for _ in range(20):
                assert 0 <= rng.randbits(bits) < 1 << bits

    def test_randint_inclusive_bounds(self):
        rng = SplitMix64(9)
        seen = {rng.randint(0, 5) for _ in range(400)}
        assert seen == set(range(6))
        assert rng.randint(17, 17) == 17
        with pytest.raises(ValueError):
            rng.randint(3, 2)

    def test_mix64_is_64_bit(self):
        assert 0 <= mix64(2**64 + 123) < 2**64


class TestDensity:
    def test_exact_power_of_two_threshold(self):
        a = tuple(range(3, 12)) + (1 << 200,)
        assert Instance(a=a).low_density is True

    def test_one_below_threshold_fails(self):
        a = tuple(range(3, 12)) + ((1 << 200) - 1,)
        assert Instance(a=a).low_density is False

    def test_small_example(self):
        assert Instance(a=(2, 3, 4)).low_density is False

    def test_all_ones_rejected(self):
        # log2(1) = 0: the density n / log2(max a) is unbounded
        assert Instance(a=(1, 1, 1)).low_density is False

    def test_flag_agrees_with_bracket_when_it_decides(self):
        # libm log2 of a big int is good to ~4e-14 absolute here, so a
        # 1e-9 bracket around it is a usable referee away from the threshold
        rnd = random.Random(6)
        decided = 0
        for _ in range(60):
            n = rnd.randint(2, 6)
            a = tuple(rnd.randint(2, 1 << (2 * n * n + 2)) for _ in range(n))
            if math.gcd(*a) != 1:
                continue
            inst = Instance(a=a)
            log2_max = math.log2(max(a))
            if log2_max + 1e-9 < 2 * n * n:
                assert not inst.low_density
                decided += 1
            elif log2_max - 1e-9 > 2 * n * n:
                assert inst.low_density
                decided += 1
        assert decided >= 30


class TestInstance:
    def test_generated_postconditions(self):
        inst = generate_instance(10, 42)
        assert inst.n == 10
        assert math.gcd(*inst.a) == 1
        assert inst.linf_norm >= 1 << 200
        assert all(1 <= x <= 1 << 201 for x in inst.a)
        assert inst.low_density

    def test_generation_deterministic(self):
        assert generate_instance(6, 123) == generate_instance(6, 123)
        assert generate_instance(6, 123) != generate_instance(6, 124)

    def test_generation_follows_documented_resampling(self):
        # attempt t draws from substream t of the seed; the first vector
        # with max(a) >= 2^(2 n^2) and gcd(a) = 1 is the instance
        resampled = 0
        for n in (2, 3):
            bits = 2 * n * n + 1
            for seed in range(40):
                for attempt in range(100):
                    rng = SplitMix64(substream_seed(seed, attempt))
                    weights = tuple(rng.randbits(bits) + 1 for _ in range(n))
                    if max(weights) >= 1 << (2 * n * n) and math.gcd(*weights) == 1:
                        break
                resampled += attempt > 0
                assert generate_instance(n, seed).a == weights
        assert resampled >= 10

    def test_n_one_rejected(self):
        with pytest.raises(DomainError):
            generate_instance(1, 0)

    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            Instance(a=(2, 4, 6))
        with pytest.raises(DomainError):
            Instance(a=(0, 1))
        with pytest.raises(DomainError):
            Instance(a=())

    def test_weights_are_the_instance(self):
        # n is counted from the weights, never stored beside them
        assert [f.name for f in dataclasses.fields(Instance)] == ["a", "seed"]
        assert Instance(a=[2, 3, 4]) == Instance(a=(2, 3, 4))
        assert Instance(a=(2, 3, 4)).n == 3

    def test_norms_are_derived(self):
        inst = Instance(a=(2, 3, 4))
        assert inst.l1_norm == 9
        assert inst.linf_norm == 4


def verdict(check, args, refusal):
    """("ok", result) or ("refused", message); any other exception propagates."""
    try:
        return "ok", check(*args)
    except refusal as exc:
        return "refused", str(exc)


# every vector of up to three entries of every kind the checks meet: ints
# in and out of range, bools, int-valued Fraction and float, str and None
ENTRIES = [1, 2, 0, -1, True, False, Fraction(1), Fraction(1, 2), 1.0, "1", None]
GRID = [x for k in range(4) for x in product(ENTRIES, repeat=k)]


class TestValidators:
    def test_weights_match_the_generator_form(self):
        for a in GRID:
            got = verdict(validate_weights, (a,), DomainError)
            assert got == verdict(validate_weights_gen, (a,), ValueError), a
            assert verdict(validate_weights, (list(a),), DomainError) == got, a

    def test_direction_matches_the_generator_form(self):
        for v in GRID[1:]:
            for n in (len(v) - 1, len(v), len(v) + 1):
                got = verdict(validate_direction, (v, n), DomainError)
                assert got == verdict(validate_direction_gen, (v, n), ValueError), (v, n)

    def test_types_match_the_validators(self):
        # the type constructors are the checks; the direction's length is
        # the validator's alone
        for x in GRID:
            got = verdict(Weights, (x,), DomainError)
            assert got == verdict(validate_weights, (x,), DomainError), x
            assert got[0] != "ok" or type(got[1]) is Weights
            got = verdict(Direction, (x,), DomainError)
            assert got == verdict(validate_direction, (x, len(x)), DomainError), x
            assert got[0] != "ok" or type(got[1]) is Direction

    def test_type_is_checked_before_any_comparison(self):
        # min() would raise TypeError comparing "1" or None with an int
        for bad in ((-1, "1"), (0, "1"), (2, 0, None), ("1", -1)):
            with pytest.raises(DomainError, match="integers >= 1"):
                validate_weights(bad)
            with pytest.raises(DomainError, match="nonnegative integer vector"):
                validate_direction(bad, len(bad))

    def test_empty_direction_is_refused(self):
        # the generator form reached max(()) and raised its ValueError
        with pytest.raises(ValueError, match="empty"):
            validate_direction_gen((), 0)
        with pytest.raises(DomainError, match="nonzero"):
            validate_direction((), 0)


class _Edited:
    """Pickles as a call of ``cls`` on entries that no check has seen."""

    def __init__(self, cls, entries):
        self.cls, self.entries = cls, entries

    def __reduce__(self):
        return self.cls, (self.entries,)


class TestCheckedTypes:
    W, D = (3, 5, 10**30), (0, 1, 10**30)

    def test_typed_tuples_pass_unchanged(self):
        w, d = Weights(self.W), Direction(self.D)
        assert Weights(w) is w and validate_weights(w) is w
        assert Direction(d) is d and validate_direction(d, 3) is d
        assert w == self.W and d == self.D and hash(w) == hash(self.W)
        # a typed direction still has its length checked
        with pytest.raises(DomainError, match="length"):
            validate_direction(d, 2)

    def test_lists_and_plain_tuples_are_checked_into_the_type(self):
        for x in (self.W, list(self.W), iter(self.W)):
            assert type(validate_weights(x)) is Weights
        for x in (self.D, list(self.D), iter(self.D)):
            assert type(validate_direction(x, 3)) is Direction

    def test_slices_and_sums_are_plain_tuples(self):
        for typed in (Weights(self.W), Direction(self.D)):
            for part in (typed[:], typed[1:], typed[::-1], typed + (1,), (1,) + typed, typed * 2):
                assert type(part) is tuple, part

    def test_holders_keep_the_types(self):
        inst = Instance(a=[2, 3, 4])
        assert type(inst.a) is Weights
        assert type(dataclasses.replace(inst, a=(5, 7)).a) is Weights

    def test_pickle_and_copies_check_again(self):
        for cls, entries in ((Weights, self.W), (Direction, self.D)):
            typed = cls(entries)
            # every protocol rebuilds through the type, which runs the check
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(typed, protocol))
                assert type(back) is cls and back == typed, protocol
                edited = pickle.dumps(_Edited(cls, entries[:2] + (Fraction(7),)), protocol)
                assert b"_Edited" not in edited
                with pytest.raises(DomainError):
                    pickle.loads(edited)
            for clone in (copy.copy(typed), copy.deepcopy(typed)):
                assert type(clone) is cls and clone == typed
            # a deepcopy whose memo swaps an entry for a Fraction is refused
            big = entries[2]
            with pytest.raises(DomainError):
                copy.deepcopy(typed, {id(big): Fraction(big)})
