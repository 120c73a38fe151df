"""Removed-frequency sets: power-law and interval-block generators plus
sparsity/counting diagnostics.

A set here stores a finite increasing list of positive frequencies with
generator metadata.  A set that carries rho holds floor(k^rho) for
k = 1..len, rho > 1, and stands for its whole infinite set, which
complement_in_range removes; analytic tail estimates attached to rho are
what turn finite partial sums into certified verdicts.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = ["FrequencySet", "SparsityReport", "ConditionBReport",
           "gen_power_set", "gen_interval_blocks", "sqrt_sum_diagnostic",
           "condition_B_check", "thin_to_condition_B", "complement_in_range",
           "primes_upto"]


def primes_upto(n):
    """Primes <= n by sieve, as a python list."""
    if n < 2:
        return []
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return [int(p) for p in np.nonzero(mask)[0]]


@dataclass(frozen=True)
class FrequencySet:
    """Finite increasing set of positive frequencies with provenance."""

    elements: tuple
    generator: str = "explicit"
    # exponent of a power set: the elements are floor(k^rho), k = 1..len
    rho: float | None = None

    def __post_init__(self):
        elems = tuple(float(e) for e in self.elements)
        if self.rho is not None and not self.rho > 1:
            raise ValueError("rho must exceed 1 for a uniformly discrete set")
        if self.rho is not None and elems != _powers(self.rho, len(elems)):
            raise ValueError("elements are not floor(k^rho), k = 1..len")
        if not all(0 < e < math.inf for e in elems):
            raise ValueError("all frequencies must be positive and finite")
        if any(b <= a for a, b in zip(elems, elems[1:])):
            raise ValueError("frequencies must be strictly increasing")
        object.__setattr__(self, "elements", elems)

    def __len__(self):
        return len(self.elements)

    @property
    def array(self):
        return np.asarray(self.elements, dtype=np.float64)

    def to_text(self):
        lines = [f"# generator: {self.generator}"]
        lines += [repr(e) for e in self.elements]
        return "\n".join(lines) + "\n"


@dataclass
class SparsityReport:
    """Partial sums of gamma^(-1/2) with an optional certified tail."""

    partial_sqrt_sums: list
    tail_bound: float | None
    verdict: str
    note: str = ""


@dataclass
class ConditionBReport:
    points: list  # (x, count, bound, ok)

    @property
    def passed(self):
        return all(ok for *_, ok in self.points)


def _powers(rho, count):
    """floor(k^rho) for k = 1..count, as floats in k order: for rho > 1 the
    values are distinct, as (k+1)^rho - k^rho > 1."""
    return tuple(float(math.floor(k ** rho)) for k in range(1, count + 1))


def gen_power_set(rho, count):
    """{floor(k^rho) : 1 <= k <= count}; FrequencySet refuses rho <= 1."""
    if count < 1:
        raise ValueError("count must be positive")
    return FrequencySet(_powers(rho, count), rho=float(rho),
                        generator=f"power(rho={rho}, count={count})")


def gen_interval_blocks(block_starts, block_lengths):
    """Union of integer intervals [s_m, s_m + L_m], L_m >= 0; blocks must be
    disjoint."""
    if len(block_starts) != len(block_lengths):
        raise ValueError("starts and lengths must have equal length")
    blocks = sorted(zip(block_starts, block_lengths))
    elems, prev_end = [], -math.inf
    for s, length in blocks:
        if not (float(s).is_integer() and float(length).is_integer()
                and length >= 0):
            raise ValueError(f"block at {s} of length {length} is not an "
                             "integer interval (length >= 0)")
        if s <= prev_end:
            raise ValueError(f"block starting at {s} overlaps its predecessor")
        elems.extend(range(int(s), int(s) + int(length) + 1))
        prev_end = s + length
    spec = ",".join(f"[{int(s)}+{int(l)}]" for s, l in blocks)
    return FrequencySet(tuple(float(e) for e in elems),
                        generator=f"blocks({spec})")


def sqrt_sum_diagnostic(fset):
    """Partial sums of 1/sqrt(gamma) with a verdict.

    For power(rho) generators the verdict is certified: an integral tail
    bound for rho > 2, a harmonic/integral minorant for rho <= 2.
    Explicit sets get 'undetermined' (finite data cannot decide).
    """
    arr = fset.array
    if arr.size == 0:
        raise ValueError("empty frequency set")
    sums = np.cumsum(1.0 / np.sqrt(arr))
    checkpoints = sorted({2 ** i for i in range(arr.size.bit_length())}
                         | {arr.size})
    partial = [(int(k), float(sums[k - 1])) for k in checkpoints]

    rho = fset.rho
    if rho is not None and rho > 2:
        tail = len(fset) ** (1.0 - rho / 2.0) / (rho / 2.0 - 1.0)
        return SparsityReport(partial, tail, "converges",
                              note="integral comparison tail bound")
    if rho is not None:
        # floor(k^rho) <= k^rho, so 1/sqrt(floor(k^rho)) >= k^(-rho/2) and
        # the minorant sum k^(-rho/2) diverges for rho <= 2.
        return SparsityReport(partial, None, "diverges",
                              note="integral minorant k^(-rho/2), rho <= 2")
    if "prime-thinned" in fset.generator:
        return SparsityReport(partial, None, "diverges",
                              note="sum over 1/p diverges (Mertens)")
    return SparsityReport(partial, None, "undetermined",
                          note="no analytic tail attached")


def condition_B_check(fset, C, x_grid):
    """Compare the counting function with C*sqrt(x)/log(x) pointwise."""
    if C <= 0:
        raise ValueError("C must be positive")
    arr = fset.array
    points = []
    for x in x_grid:
        if x <= math.e:
            raise ValueError(f"grid point {x} must exceed e")
        count = int(np.count_nonzero(arr <= x))
        bound = C * math.sqrt(x) / math.log(x)
        points.append((float(x), count, bound, count <= bound))
    return ConditionBReport(points)


def thin_to_condition_B(fset, C):
    """Prime-index subset of a power(rho<=2) set; no-op for rho > 2.

    Keeping the element floor(p^rho) for prime p makes the counting
    function grow like pi(x^(1/rho)) ~ rho*x^(1/rho)/log(x), while
    sum 1/sqrt(floor(p^rho)) still diverges (for rho = 2 it is sum 1/p,
    Mertens).  C is unread: condition_B_check tests C*sqrt(x)/log(x).
    """
    if fset.rho is None:
        raise ValueError("thinning requires a power-generated set")
    if fset.rho > 2:
        return replace(
            fset, generator=fset.generator + " (no-op: rho>2 already sparse)")
    return FrequencySet(
        tuple(fset.elements[p - 1] for p in primes_upto(len(fset))),
        generator=f"prime-thinned {fset.generator}")


def complement_in_range(fset, N):
    """Sorted integers in [1, N] not in the set, which holds integers.  A
    power set is all of {floor(k^rho) : k >= 1}, past len(fset) too."""
    if N < 1:
        raise ValueError("N must be >= 1")
    fraction = next((e for e in fset.elements if not e.is_integer()), None)
    if fraction is not None:
        raise ValueError(f"frequencies must be integers, got {fraction!r}")
    removed = {int(e) for e in fset.elements}
    if fset.rho is not None:  # floor(k^rho) <= N iff k < (N + 1)^(1/rho)
        k = math.ceil((N + 1) ** (1 / fset.rho))
        removed.update(map(int, _powers(fset.rho, k)))
    return [n for n in range(1, N + 1) if n not in removed]
