import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from szegolab.frequency_sets import (ConditionBReport, FrequencySet,
                                     complement_in_range, condition_B_check,
                                     gen_interval_blocks, gen_power_set,
                                     primes_upto, sqrt_sum_diagnostic,
                                     thin_to_condition_B)


def test_power_set_small_cases():
    assert gen_power_set(2, 5).elements == (1.0, 4.0, 9.0, 16.0, 25.0)
    assert gen_power_set(2.5, 2).elements == (1.0, 5.0)
    assert gen_power_set(3, 3).elements == (1.0, 8.0, 27.0)


def test_power_set_rejects_small_rho():
    with pytest.raises(ValueError):
        gen_power_set(1.0, 10)


def test_increasing_and_dedup_idempotent():
    s = gen_power_set(1.1, 40)
    arr = s.array
    assert np.all(np.diff(arr) > 0)
    assert len(set(s.elements)) == len(s.elements)


def test_sqrt_sum_verdicts_across_rho():
    for rho, expected in [(1.5, "diverges"), (2.0, "diverges"),
                          (2.5, "converges"), (3.0, "converges")]:
        assert sqrt_sum_diagnostic(gen_power_set(rho, 60)).verdict == expected


def test_cubes_tail_brackets_zeta():
    # sum over k of k^(-3/2) = zeta(3/2); generated partial sum plus the
    # integral tail must bracket it from below/above
    s = gen_power_set(3, 100)
    rep = sqrt_sum_diagnostic(s)
    partial = rep.partial_sqrt_sums[-1][1]
    true = float(mpmath.zeta(1.5))
    assert partial < true < partial + rep.tail_bound
    assert rep.verdict == "converges"


def test_squares_partial_sum_is_harmonic():
    s = gen_power_set(2, 50)
    rep = sqrt_sum_diagnostic(s)
    harmonic = sum(1.0 / k for k in range(1, 51))
    assert abs(rep.partial_sqrt_sums[-1][1] - harmonic) < 1e-12
    assert rep.verdict == "diverges"


def test_partial_sums_nondecreasing():
    rep = sqrt_sum_diagnostic(gen_power_set(2.2, 64))
    sums = [v for _, v in rep.partial_sqrt_sums]
    assert all(b >= a for a, b in zip(sums, sums[1:]))


def test_singleton_set():
    rep = sqrt_sum_diagnostic(FrequencySet((4.0,)))
    assert abs(rep.partial_sqrt_sums[-1][1] - 0.5) < 1e-15
    assert rep.verdict == "undetermined"


def test_condition_B_squares_fails():
    s = gen_power_set(2, 100)
    rep = condition_B_check(s, 1.0, [1e4])
    x, count, bound, ok = rep.points[0]
    assert count == 100
    assert abs(bound - math.sqrt(1e4) / math.log(1e4)) < 1e-12
    assert not ok and not rep.passed


def test_condition_B_prime_squares_pass():
    elems = tuple(float(p * p) for p in primes_upto(100))
    s = FrequencySet(elems)
    rep = condition_B_check(s, 3.0, [1e4])
    _, count, bound, ok = rep.points[0]
    assert count == 25  # pi(100)
    assert ok


def test_condition_B_rejects_small_x():
    with pytest.raises(ValueError):
        condition_B_check(gen_power_set(2, 5), 1.0, [2.0])


def test_thinning_small_case():
    s = gen_power_set(2, 10)
    thin = thin_to_condition_B(s, 3.0)
    assert thin.elements == (4.0, 9.0, 25.0, 49.0)


def test_thinning_subset_and_passes_B():
    s = gen_power_set(2, 100)
    thin = thin_to_condition_B(s, 3.0)
    assert set(thin.elements) <= set(s.elements)
    assert condition_B_check(thin, 3.0, [1e3, 1e4]).passed
    assert sqrt_sum_diagnostic(thin).verdict == "diverges"


def test_thinning_noop_for_sparse():
    s = gen_power_set(3, 20)
    thin = thin_to_condition_B(s, 3.0)
    assert thin.elements == s.elements
    assert "no-op" in thin.generator


def test_interval_blocks():
    s = gen_interval_blocks([2, 4, 8], [1, 2, 3])
    assert s.elements == (2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0, 11.0)
    assert gen_interval_blocks([10], [0]).elements == (10.0,)
    assert gen_interval_blocks([2.0], [1.0]).elements == (2.0, 3.0)
    with pytest.raises(ValueError):
        gen_interval_blocks([2, 3], [2, 1])


@pytest.mark.parametrize("starts, lengths", [
    ([1.5, 10], [2, 0.9]), ([5], [-3]), ([2], [0.5]), ([math.nan], [1]),
    ([4], [math.inf])])
def test_interval_blocks_must_be_integer_intervals(starts, lengths):
    # int() would turn the first into {1, 2, 3, 10}; a negative length
    # would give the empty set
    with pytest.raises(ValueError, match="not an integer interval"):
        gen_interval_blocks(starts, lengths)


def test_block_psi_sum_converges():
    # blocks at 2^(2^m) of length m: sum of 1/log^2(gamma) stays bounded
    starts = [2 ** (2 ** m) for m in range(1, 5)]
    s = gen_interval_blocks(starts, list(range(1, 5)))
    psi_sum = float(np.sum(1.0 / np.log(s.array) ** 2))
    partial = float(np.sum(1.0 / np.log(s.array[: len(s) // 2]) ** 2))
    assert psi_sum < 2.0
    assert psi_sum - partial < 0.5


def test_complement_examples():
    assert complement_in_range(gen_power_set(2, 10), 10) == [2, 3, 5, 6, 7, 8, 10]
    assert complement_in_range(gen_power_set(3, 10), 30) == [
        n for n in range(1, 31) if n not in (1, 8, 27)]


def test_complement_removes_a_power_set_past_its_count():
    """The cubes stored to count 3 are {1, 8, 27}; 64 and 125 lie below
    N = 200 all the same."""
    comp = complement_in_range(gen_power_set(3, 3), 200)
    assert 64 not in comp and 125 not in comp
    assert comp == complement_in_range(gen_power_set(3, 5), 200)


def test_complement_refuses_fractional_frequencies():
    """Nothing in [1, N] equals 2.5 or 3.7, so skipping them would remove
    nothing without a word."""
    with pytest.raises(ValueError, match="integers"):
        complement_in_range(FrequencySet((2.5, 3.7)), 10)
    assert complement_in_range(FrequencySet((2.0, 3.0)), 4) == [1, 4]


def test_text_roundtrip():
    """to_text writes a generator comment, then one element a line in repr
    form, which reads back to the same float."""
    s = gen_power_set(2.5, 12)
    header, *lines = s.to_text().splitlines()
    assert header == f"# generator: {s.generator}"
    assert s.generator.startswith("power(")
    assert tuple(float(line) for line in lines) == s.elements


def test_invariants_rejected():
    with pytest.raises(ValueError):
        FrequencySet((3.0, 2.0))
    with pytest.raises(ValueError):
        FrequencySet((-1.0, 2.0))


@settings(max_examples=30, deadline=None)
@given(st.floats(1.5, 3.5), st.integers(1, 30), st.integers(1, 60))
def test_complement_partition(rho, count, N):
    s = gen_power_set(rho, count)
    comp = complement_in_range(s, N)
    # the whole power set, past count too
    inside = {v for v in (math.floor(k ** rho) for k in range(1, N + 1))
              if v <= N}
    assert set(comp) | inside == set(range(1, N + 1))
    assert set(comp) & inside == set()


def test_a_set_stores_its_length_once():
    """len is the only count a set has: a power set stores its first count
    elements, in k order."""
    assert [f.name for f in dataclasses.fields(FrequencySet)] == [
        "elements", "generator", "rho"]
    for rho, count in [(1.01, 300), (1.5, 200), (2, 100), (3, 50)]:
        s = gen_power_set(rho, count)
        assert len(s) == count
        assert s.elements == tuple(float(math.floor(k ** rho))
                                   for k in range(1, count + 1))


def test_explicit_power_set_tail_is_the_generated_one():
    cubes = FrequencySet((1.0, 8.0, 27.0), rho=3.0)
    assert cubes.elements == gen_power_set(3, 3).elements
    assert (sqrt_sum_diagnostic(cubes).tail_bound
            == sqrt_sum_diagnostic(gen_power_set(3, 3)).tail_bound)


def test_explicit_power_set_thins_as_the_generated_one():
    squares = FrequencySet(tuple(float(k * k) for k in range(1, 101)),
                           rho=2.0)
    thinned = thin_to_condition_B(squares, 3.0)
    assert thinned.elements == thin_to_condition_B(
        gen_power_set(2, 100), 3.0).elements
    assert len(thinned) == 25


def test_condition_B_passed_is_read_off_its_points():
    assert ConditionBReport([]).passed
    assert ConditionBReport([(10.0, 1, 2.0, True)]).passed
    assert not ConditionBReport([(10.0, 1, 2.0, True),
                                 (20.0, 5, 3.0, False)]).passed


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_frequencies_must_be_finite(bad):
    with pytest.raises(ValueError, match="positive and finite"):
        FrequencySet((1.0, bad, 3.0))


def test_a_set_with_rho_holds_its_powers():
    """rho generates the elements: a set whose elements are not
    floor(k^rho), k = 1..len, is refused, so no verdict, tail or
    complement can follow from a rho that the elements contradict."""
    with pytest.raises(ValueError, match="floor"):
        FrequencySet((2.0, 3.0, 5.0), rho=3.0)
    with pytest.raises(ValueError, match="floor"):
        FrequencySet((1.0, 8.0), rho=2.0)


@pytest.mark.parametrize("rho", [0.5, 1.0, -2.0, math.nan])
def test_a_set_with_rho_needs_rho_above_1(rho):
    with pytest.raises(ValueError, match="rho must exceed 1 for a uniformly "
                                         "discrete set"):
        FrequencySet((1.0,), rho=rho)


@pytest.mark.parametrize("rho", [1.01, 1.1, 1.5, 1.9, 2, 2.0, 2.5, 3, 3.7])
def test_complement_extends_a_power_set_by_its_rule(rho):
    """The removed powers past len(fset) are floor(k^rho) for k up to
    (N + 1)^(1/rho); k counts up until floor(k^rho) passes N, as an
    oracle, and gives the same complement."""
    for count in (1, 2, 3, 10, 100):
        fset = gen_power_set(rho, count)
        for N in (1, 2, 7, 8, 9, 100, 1000, 5000):
            removed, k = set(fset.elements), 1
            while math.floor(k ** rho) <= N:
                removed.add(math.floor(k ** rho))
                k += 1
            assert complement_in_range(fset, N) == [
                n for n in range(1, N + 1) if n not in removed]


def test_primes_upto_1_is_empty():
    assert primes_upto(1) == []


@pytest.mark.parametrize("call, match", [
    (lambda: gen_power_set(2, 0), "count"),
    (lambda: gen_interval_blocks([1, 5], [2]), "equal length"),
    (lambda: sqrt_sum_diagnostic(FrequencySet(())), "empty"),
    (lambda: condition_B_check(gen_power_set(3, 5), 0, [10.0]), "C"),
    (lambda: thin_to_condition_B(FrequencySet((1, 4, 9)), 1.0), "power"),
    (lambda: complement_in_range(gen_power_set(2, 5), 0), "N"),
], ids=["count-0", "blocks-lengths", "empty-set", "C-0", "thin-explicit",
        "N-0"])
def test_refused_inputs(call, match):
    with pytest.raises(ValueError, match=match):
        call()
