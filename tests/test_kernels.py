import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privzone import (
    build_fixed_length,
    generate_sigmoid_probabilities,
    kernels,
    sample_alert_zone,
)
from privzone._qmcore_py import _merge_prime_implicants, prime_implicants, select_cover
from privzone.kernels import minimize_patterns


def brute_force_primes(minterms, width):
    """Oracle: enumerate every cube, keep those inside the set and maximal."""
    on = set(minterms)

    def cube_minterms(value, mask):
        free = [b for b in range(width) if mask >> b & 1]
        for bits in itertools.product((0, 1), repeat=len(free)):
            v = value
            for b, bit in zip(free, bits):
                v |= bit << b
            yield v

    inside = set()
    for mask in range(1 << width):
        value_bits = [b for b in range(width) if not mask >> b & 1]
        for bits in itertools.product((0, 1), repeat=len(value_bits)):
            value = 0
            for b, bit in zip(value_bits, bits):
                value |= bit << b
            if all(m in on for m in cube_minterms(value, mask)):
                inside.add((value, mask))
    primes = set()
    for value, mask in inside:
        maximal = True
        for b in range(width):
            if not mask >> b & 1:
                if (value & ~(1 << b), mask | 1 << b) in inside:
                    maximal = False
                    break
        if maximal:
            primes.add((value, mask))
    return sorted(primes)


def _cube_minterm_bits(value, mask, position):
    bits = 0
    sub = mask
    while True:
        bits |= 1 << position[value | sub]
        if sub == 0:
            return bits
        sub = (sub - 1) & mask


def greedy_select_cover(primes, minterms, width):
    """Oracle: the greedy cover recomputing every candidate's gain each round.

    Picks the unblocked candidate (prime or singleton) covering the most
    new minterms, ties broken on (fewest stars, value, mask), then blocks
    every candidate overlapping it, until all minterms are covered.
    """
    position = {v: i for i, v in enumerate(minterms)}
    candidates = sorted(set(primes) | {(v, 0) for v in minterms})
    coverage = [_cube_minterm_bits(v, m, position) for v, m in candidates]
    non_stars = [width - m.bit_count() for _, m in candidates]
    blocked = [False] * len(candidates)
    covered = 0
    everything = (1 << len(minterms)) - 1
    chosen = []
    while covered != everything:
        best = -1
        best_key = None
        for i, (v, m) in enumerate(candidates):
            if blocked[i]:
                continue
            new = (coverage[i] & ~covered).bit_count()
            if new == 0:
                continue
            key = (-new, non_stars[i], v, m)
            if best_key is None or key < best_key:
                best_key = key
                best = i
        bv, bm = candidates[best]
        chosen.append((bv, bm))
        covered |= coverage[best]
        for i, (v, m) in enumerate(candidates):
            if not blocked[i] and not ((bv ^ v) & ~bm & ~m):
                blocked[i] = True
    return chosen


def assert_exact_disjoint_cover(cubes, minterms):
    covered = set()
    for value, mask in cubes:
        members = set()
        sub = mask
        while True:
            members.add(value | sub)
            if sub == 0:
                break
            sub = (sub - 1) & mask
        assert members <= set(minterms)  # never outside the alert set
        assert not members & covered  # disjoint from earlier cubes
        covered |= members
    assert covered == set(minterms)


def assert_matches_reference(minterms, width):
    """The kernels against the merge loop and the recomputing greedy."""
    primes = prime_implicants(minterms, width)
    assert primes == _merge_prime_implicants(minterms, width)
    assert select_cover(primes, minterms, width) == greedy_select_cover(primes, minterms, width)


def random_instance(rng, max_width=6):
    width = rng.randrange(1, max_width + 1)
    universe = list(range(1 << width))
    k = rng.randrange(1, len(universe) + 1)
    return sorted(rng.sample(universe, k)), width


class TestPrimeImplicants:
    def test_against_brute_force(self):
        rng = random.Random(50)
        for _ in range(120):
            minterms, width = random_instance(rng)
            assert prime_implicants(minterms, width) == brute_force_primes(
                minterms, width
            )


class TestAgainstReference:
    """The bitset primes and static-order cover equal the reference kernels."""

    def test_random_instances(self):
        # At most 128 minterms keeps the recomputing greedy fast; the dense
        # width-10 case is covered by the real zones below.
        rng = random.Random(56)
        for _ in range(2000):
            width = rng.randrange(1, 11)
            k = rng.randrange(1, min(1 << width, 128) + 1)
            assert_matches_reference(sorted(rng.sample(range(1 << width), k)), width)

    def test_sparse_wide_instances(self):
        rng = random.Random(57)
        for width in list(range(11, 17)) * 5:
            minterms = sorted(rng.sample(range(1 << width), rng.randrange(1, 300)))
            assert_matches_reference(minterms, width)

    @pytest.mark.parametrize("radius", [200, 300])
    def test_fixed_length_zones(self, radius):
        grid = generate_sigmoid_probabilities(32, 32, a=0.99, b=100, seed=7)
        _, index_map = build_fixed_length(grid)
        for seed in range(3):
            zone = sample_alert_zone(grid, cell_size_meters=10, radius_meters=radius, seed=seed)
            minterms = sorted(int(index_map.index_of(c), 2) for c in zone.cell_ids)
            assert_matches_reference(minterms, index_map.width)

    def test_width_41_takes_the_merge_path(self):
        stars = 1 << 40 | 1 << 20 | 1
        block = [1 << 10 | sub for sub in (0, 1, 1 << 20, 1 << 20 | 1)]
        block += [b | 1 << 40 for b in block]
        pair = [1 << 30, 1 << 30 | 1 << 2]
        lone = 1 << 39 | 1 << 5
        minterms = sorted(block + pair + [lone])
        expected = [(1 << 10, stars), (1 << 30, 1 << 2), (lone, 0)]
        assert prime_implicants(minterms, 41) == expected
        assert_matches_reference(minterms, 41)


class TestCoverProperties:
    def test_exact_disjoint_cover(self):
        rng = random.Random(54)
        for _ in range(100):
            minterms, width = random_instance(rng, max_width=8)
            assert_exact_disjoint_cover(minimize_patterns(minterms, width), minterms)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=9).flatmap(
            lambda width: st.tuples(
                st.sets(st.integers(0, (1 << width) - 1), min_size=1), st.just(width)
            )
        )
    )
    def test_exact_disjoint_cover_property(self, instance):
        minterms, width = sorted(instance[0]), instance[1]
        assert_exact_disjoint_cover(minimize_patterns(minterms, width), minterms)


class TestDispatch:
    def test_wide_patterns_fall_back_to_python(self):
        minterms = [0, 1 << 40]
        cubes = minimize_patterns(minterms, 41)
        assert len(cubes) >= 1

    def test_env_override(self):
        assert kernels.available_backends() == ["python"]
        assert kernels.default_backend(4) == "python"
        assert kernels.default_backend(100) == "python"

    def test_select_cover_reexport(self):
        primes = prime_implicants([0, 1], 1)
        assert select_cover(primes, [0, 1], 1) == [(0, 1)]
