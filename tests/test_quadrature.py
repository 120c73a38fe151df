import ast
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import legendre
from scipy.integrate import quad
from scipy.special import spherical_jn

import szegolab.quadrature as quadrature
from szegolab import blaschke, deep_zero
from szegolab.blaschke import BlaschkeAnnihilator, JumpFunction
from szegolab.frequency_sets import gen_power_set
from szegolab.quadrature import (_WG, _WK, _XK, QuadratureResult, decades,
                                 fourier_coefficients, integrate_finite,
                                 integrate_left_halfline, require)


def test_gk15_constants_full_precision():
    assert abs(_WK.sum() - 2.0) <= 4e-16
    assert abs(_WG.sum() - 2.0) <= 4e-16
    # K15 is exact to degree 22, its embedded G7 (odd nodes) to degree 13
    assert abs((_WK * _XK ** 22).sum() - 2.0 / 23.0) <= 1e-15
    assert abs((_WG * _XK[1::2] ** 12).sum() - 2.0 / 13.0) <= 1e-15


def test_polynomial_exact():
    res = integrate_finite(lambda t: t ** 2 + 0j, 0.0, 1.0, 1e-12)
    assert res.converged
    assert abs(res.value - 1.0 / 3.0) < 1e-12


def test_deep_zero_integrand_self_convergence():
    f = lambda t: np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0) + 0j
    coarse = integrate_finite(f, 0.0, 1.0, 1e-10, points=decades(1.0, 1e-10))
    fine = integrate_finite(f, 0.0, 1.0, 1e-12, points=decades(1.0, 1e-12))
    assert abs(coarse.value - fine.value) < 1e-10
    # independent oracle
    ref, _ = quad(lambda t: np.exp(-1.0 / t) if t > 0 else 0.0, 0, 1, limit=200)
    assert abs(fine.value.real - ref) < 1e-10


def test_sine_orthonormality():
    f = lambda t: np.sin(2 * np.pi * 9 * t) ** 2 + 0j
    res = integrate_finite(f, 0.0, 1.0, 1e-12,
                           points=np.linspace(0.0, 1.0, 4 * 9 + 1))
    assert abs(res.value - 0.5) < 1e-12


def test_oscillatory_singular_end_matches_integrate_finite():
    """With quarter-period panels and the seed mesh toward a sqrt(s)
    endpoint the integral matches the one seeded toward the endpoint alone
    within both error estimates, and scipy's quad."""
    f = lambda s: np.sqrt(s) * np.exp(2j * np.pi * s)
    osc = integrate_finite(f, 0.0, 1.0, 1e-10, points=np.concatenate(
        [np.linspace(0.0, 1.0, 4 * 1 + 1), decades(1.0, 1e-10)]))
    fin = integrate_finite(f, 0.0, 1.0, 1e-10, points=decades(1.0, 1e-10))
    assert osc.converged and fin.converged
    assert abs(osc.value - fin.value) <= (osc.abs_error_estimate
                                          + fin.abs_error_estimate)
    ref = complex(*(quad(lambda s: np.sqrt(s) * part(2 * np.pi * s), 0, 1,
                         epsabs=1e-13, limit=200)[0]
                    for part in (np.cos, np.sin)))
    assert abs(osc.value - ref) <= 1e-10


def _seed_edges(monkeypatch, call):
    """The seed's panel edges in the one integrate_finite that call makes:
    the first round's panels, which cover the interval in order."""
    rounds, real = [], quadrature._eval_panels

    def recording(f, lo, hi):
        rounds.append(np.append(lo, hi[-1]))
        return real(f, lo, hi)

    monkeypatch.setattr(quadrature, "_eval_panels", recording)
    call()
    return rounds[0]


@pytest.mark.parametrize("tol, count", [(5e-4, 3), (1e-10, 8)])
def test_singular_end_seed_stops_at_tol(monkeypatch, tol, count):
    """The seed's decades toward a singular end go down to the last width
    not below tol, and to 10^-8 at most: a panel narrower than tol holds
    less than tol of an f of order 1."""
    edges = _seed_edges(monkeypatch, lambda: integrate_finite(
        lambda t: np.sqrt(t) + 0j, 0.0, 1.0, tol, points=decades(1.0, tol)))
    assert np.array_equal(edges, [0.0, *(10.0 ** -k for k in range(
        count, 0, -1)), 1.0])


def test_seed_breaks_at_the_points_inside_the_interval(monkeypatch):
    edges = _seed_edges(monkeypatch, lambda: integrate_finite(
        lambda t: np.abs(t - 0.3) + 0j, 0.0, 1.0, 1e-10,
        points=(-1.0, 0.0, 0.3, 1.0, 2.0)))
    assert np.array_equal(edges, [0.0, 0.3, 1.0])


def test_halfline_seeds_both_ends_of_its_map(monkeypatch):
    """s -> 0 is u -> 0, where a jump integrand has its edge, and s -> 1 is
    the end of the map: both get the decades down to tol."""
    edges = _seed_edges(monkeypatch, lambda: integrate_left_halfline(
        lambda u: np.exp(u) + 0j, 1e-4))
    s_max = 1.0 - 1e-12
    steps = [s_max * 10.0 ** -k for k in range(1, 4)]
    assert np.array_equal(edges, sorted([0.0, *steps, s_max,
                                         *(s_max - d for d in steps)]))


def test_decades_keep_the_seed_rule():
    """decades(scale, floor) gives scale 10^-1, ..., 10^-8 down to floor:
    the width-1 list at tol 1e-10 and the convolution check's points below
    G's branch point 0.05 at its outer tol 5e-4."""
    assert decades(1.0, 1e-10) == [10.0 ** -k for k in range(1, 9)]
    assert decades(0.05, 5e-4) == pytest.approx([5e-3, 5e-4], rel=1e-15)
    assert decades(1.0, 2.0) == []


@pytest.mark.parametrize("tol, evaluations, error", [
    (1e-6, 199, 9.264913978956691e-11), (1e-10, 259, 9.264913978955585e-11)],
    ids=["1e-6", "1e-10"])
def test_halfline_keeps_its_bits(tol, evaluations, error):
    """The half-line integral of |u|^(5/2)/(1+|u|)^(9/2), whose exact value
    is 2/7, keeps the value, error and evaluations it had while
    integrate_finite itself seeded the decades toward both ends."""
    res = integrate_left_halfline(
        lambda u: np.abs(u) ** 2.5 / (1 + np.abs(u)) ** 4.5 + 0j, tol)
    assert res.value == 0.2857142857132819
    assert (res.abs_error_estimate, res.evaluations) == (error, evaluations)
    assert res.converged and abs(res.value - 2.0 / 7.0) <= error


def test_halfline_exponential():
    res = integrate_left_halfline(lambda u: np.exp(u) + 0j, 1e-10)
    assert abs(res.value - 1.0) < 1e-8


def test_halfline_algebraic():
    res = integrate_left_halfline(lambda u: 1.0 / (1 + np.abs(u)) ** 2 + 0j,
                                  1e-10)
    assert abs(res.value - 1.0) < 1e-8


def test_require_names_the_integral_and_its_error():
    require(QuadratureResult(1.0, 1e-9, 15, True), "ok")
    with pytest.raises(ArithmeticError, match=r"energy of x.*2\.50e-03"):
        require(QuadratureResult(1.0, 2.5e-3, 15, False), "energy of x")


def test_halfline_converged_counts_the_tail():
    # int_{-inf}^0 1e6 (1+|u|)^-2 du = 1e6; beyond the map's reach the
    # algebraic tail bound is about 2e-6, and converged must cover it too
    f = lambda u: 1e6 / (1.0 + np.abs(u)) ** 2 + 0j
    for tol in (1e-4, 3e-5, 1e-5):
        res = integrate_left_halfline(f, tol)
        assert res.converged
        assert res.abs_error_estimate <= tol
        assert abs(res.value - 1e6) <= res.abs_error_estimate
    # a tol below the tail alone cannot be met
    tight = integrate_left_halfline(f, 1e-6)
    assert tight.abs_error_estimate > 1e-6 and not tight.converged


def test_halfline_jump_envelope_closed_form():
    # int_{-inf}^0 2u^2/(1+|u|)^4 du: antiderivative of 2v^2/(1+v)^4 on [0,inf)
    # is -2/(1+v) + 2/(1+v)^2 - 2/(3(1+v)^3), total 2 - 1 + ... = 2/3 at inf
    f = lambda u: 2.0 * u * u / (1.0 + np.abs(u)) ** 4 + 0j
    res = integrate_left_halfline(f, 1e-10)
    exact = 2.0 - 2.0 + 2.0 / 3.0  # limits of the antiderivative
    assert abs(res.value - exact) < 1e-7
    ref, _ = quad(lambda v: 2 * v * v / (1 + v) ** 4, 0, np.inf)
    assert abs(res.value.real - ref) < 1e-7


def test_halfline_matches_manual_substitution():
    for f in [lambda u: np.exp(u) + 0j,
              lambda u: 1.0 / (1 + np.abs(u)) ** 3 + 0j,
              lambda u: np.cos(u) / (1 + np.abs(u)) ** 2 + 0j]:
        direct = integrate_left_halfline(f, 1e-9)
        manual = integrate_finite(
            lambda s: np.asarray(f(-s / (1 - s)), dtype=np.complex128)
            / (1 - s) ** 2, 0.0, 1.0 - 1e-12, 1e-9)
        combined = direct.abs_error_estimate + manual.abs_error_estimate + 1e-9
        assert abs(direct.value - manual.value) <= combined


def test_oscillatory_full_periods():
    res = integrate_finite(lambda t: np.exp(-2j * np.pi * 3 * t), 0.0, 1.0,
                           1e-12, points=np.linspace(0.0, 1.0, 4 * 3 + 1))
    assert abs(res.value) < 1e-12


def test_oscillatory_zero_frequency():
    res = integrate_finite(lambda t: np.ones_like(t) + 0j, 0.0, 1.0, 1e-12)
    assert abs(res.value - 1.0) < 1e-12


def test_oscillatory_integration_by_parts():
    res = integrate_finite(lambda t: t * np.exp(-2j * np.pi * t), 0.0, 1.0,
                           1e-12, points=np.linspace(0.0, 1.0, 4 * 1 + 1))
    assert abs(res.value - 1j / (2 * np.pi)) < 1e-11


def test_tolerance_halving_never_raises_estimate():
    corpus = [
        (lambda t: np.sin(7 * t) + 0j, 0.0, 3.0),
        (lambda t: 1.0 / (1.0 + t * t) + 0j, -2.0, 2.0),
        (lambda t: np.sqrt(np.abs(t)) + 0j, 0.0, 1.0),
    ]
    for f, a, b in corpus:
        prev = None
        for tol in (1e-6, 5e-7, 2.5e-7, 1.25e-7):
            est = integrate_finite(f, a, b, tol).abs_error_estimate
            if prev is not None:
                assert est <= prev * (1 + 1e-12)
            prev = est


def test_linearity():
    f = lambda t: np.exp(-t) + 0j
    g = lambda t: np.cos(3 * t) + 0j
    a, b = 0.0, 2.0
    alpha, beta = 2.0 - 1.0j, 0.5
    rf = integrate_finite(f, a, b, 1e-10)
    rg = integrate_finite(g, a, b, 1e-10)
    rc = integrate_finite(lambda t: alpha * f(t) + beta * g(t), a, b, 1e-10)
    bound = 2 * (abs(alpha) * rf.abs_error_estimate
                 + abs(beta) * rg.abs_error_estimate + rc.abs_error_estimate)
    assert abs(rc.value - (alpha * rf.value + beta * rg.value)) <= bound + 1e-12


def test_determinism():
    f = lambda t: np.exp(-t * t) * np.cos(10 * t) + 0j
    r1 = integrate_finite(f, -3.0, 3.0, 1e-10)
    r2 = integrate_finite(f, -3.0, 3.0, 1e-10)
    assert r1.value == r2.value
    assert r1.abs_error_estimate == r2.abs_error_estimate


def test_step_below_the_rounding_floor_stops_at_the_width_floor():
    """A unit step at 0.3 on [0, 1] at tol 1e-15: the panel holding the
    step is halved down to the width floor, where its error, 3.3e-15,
    still exceeds tol.  Then no panel that can be split has an error above
    its share of tol, and the loop stops.  The result is unconverged, with
    the value within its error estimate."""
    res = integrate_finite(lambda t: (t >= 0.3) + 0j, 0.0, 1.0, 1e-15)
    assert not res.converged
    assert abs(res.value - 0.7) <= res.abs_error_estimate < 1e-14
    assert res.evaluations == 1665


class _Counting:
    """f, counting the points it is sampled at."""

    def __init__(self, f):
        self.f, self.points = f, 0

    def __call__(self, t):
        self.points += np.size(t)
        return self.f(t)


def _kept_sample_cases():
    """(f, frequencies, tol, breakpoints, pieces) of the two routes that
    keep samples: the H kernel at t = 0.1 and t = 1 as eval_H_integral takes
    it at tol 1e-14, where both split panels, and the cubes' real jump
    function on compute_G's small-|s| seed at tol 5e-5."""
    X = deep_zero._h_cut(1e-14)
    tol = 0.5 * (1e-14 - deep_zero._h_abs_tail(X))
    jump = JumpFunction(BlaschkeAnnihilator(gen_power_set(3, 50)))
    s = np.array([0.0, 0.02, -0.04])
    return [(deep_zero._sin_over_FF, np.array([0.5 - t]), tol,
             (0.0, 20.0, X), (40, int(X) - 20)) for t in (0.1, 1.0)] + [
        (jump, -s, 5e-5, *blaschke._SMALL_SEED)]


@pytest.mark.parametrize("case", range(3), ids=["H0.1", "H1.0", "G"])
def test_fourier_coefficients_keeps_the_seed_and_samples_only_split_panels(
        case, monkeypatch):
    """fourier_coefficients keeps its seed and gives the result that
    sampling f afresh gives, bit for bit: its first call samples the seed
    panels, a repeat at new frequencies calls f only on the panels it
    splits, and a repeat at the same frequencies and tol calls f not at
    all; the kept sums are a C-contiguous float64 array of 31 per panel
    that cannot be written, and neither can the kept panels' midpoints and
    half-widths."""
    f, freqs, tol, edges, pieces = _kept_sample_cases()[case]
    spy = _Counting(f)
    shifted = freqs + 0.005
    with monkeypatch.context() as m:
        m.setattr(quadrature, "_seed_samples",
                  quadrature._seed_samples.__wrapped__)
        fresh = [fourier_coefficients(spy, nu, tol, edges, pieces)
                 for nu in (freqs, shifted)]
    assert spy.points == fresh[0].evaluations + fresh[1].evaluations
    seed = int(np.sum(np.broadcast_to(pieces, len(edges) - 1))) * 15
    quadrature._seed_samples.cache_clear()
    for nu, want, sampled in ((freqs, fresh[0], fresh[0].evaluations),
                              (freqs, fresh[0], 0),
                              (shifted, fresh[1], fresh[1].evaluations - seed)):
        spy.points = 0
        seeded = fourier_coefficients(spy, nu, tol, edges, pieces)
        mid, half, sums, _ = quadrature._seed_samples(spy, edges, pieces)
        for got, want_arr in ((seeded.value, want.value),
                              (seeded.abs_error_estimate,
                               want.abs_error_estimate)):
            assert np.array_equal(got.view(np.uint64),
                                  want_arr.view(np.uint64))
        assert (seeded.evaluations, seeded.converged) == (want.evaluations,
                                                          want.converged)
        assert spy.points == sampled
    assert 0 < sampled and sums.shape == (seed // 15, 31)
    assert sums.dtype == np.float64 and np.all(np.diff(half) >= 0)
    assert sums.flags.c_contiguous and not sums.flags.writeable
    assert not (mid.flags.writeable or half.flags.writeable)


def test_a_kept_seed_returns_its_last_result_for_a_repeat(monkeypatch):
    """A repeat at a kept seed's last frequency bits and tol returns that
    seed's kept result, read-only, with no panel loop and no call to f;
    -0.0 after 0.0, or another tol, reduces again.  Every seed is kept, the
    default one too."""
    spy = _Counting(lambda t: np.sqrt(t) * np.cos(3.0 * t))
    loops, panels = [], quadrature._fourier_panels

    def recording(*args):
        loops.append(args[1].size)
        return panels(*args)

    monkeypatch.setattr(quadrature, "_fourier_panels", recording)
    freqs, seed = np.array([0.0, 1.0, 2.5]), ((0.0, 1.0), 4)
    first = fourier_coefficients(spy, freqs, 1e-10, *seed)
    assert not (first.value.flags.writeable
                or first.abs_error_estimate.flags.writeable)
    loops.clear()
    spy.points = 0
    assert fourier_coefficients(spy, freqs.copy(), 1e-10, *seed) is first
    assert loops == [] and spy.points == 0
    signed = np.array([-0.0, 1.0, 2.5])
    for nu, tol in ((signed, 1e-10), (signed, 1e-8)):
        again = fourier_coefficients(spy, nu, tol, *seed)
        assert loops and again is not first
        loops.clear()
    plain = [fourier_coefficients(spy, freqs, 1e-10) for _ in range(2)]
    assert plain[0] is plain[1] and len(loops) >= 1
    assert not plain[0].value.flags.writeable


@pytest.mark.parametrize("pieces", [1, 600],
                         ids=["default seed", "600-panel seed"])
def test_fourier_coefficients_refuse_a_complex_f(pieces):
    """Samples are real: a complex f raises TypeError, on one panel or on
    600, where casting would drop its imaginary part (e^{6 pi i t} would
    give 0.5 at nu = 3); f is called on the first block of at most
    _SAMPLE_PANELS panels alone."""
    spy = _Counting(lambda t: np.exp(6j * np.pi * t))
    with pytest.raises(TypeError, match="complex128"):
        fourier_coefficients(spy, np.arange(301), 1e-10, (0.0, 1.0), pieces)
    assert spy.points == min(pieces, quadrature._SAMPLE_PANELS) * 15


# the node layout's private names: only quadrature may use them
NODE_LAYOUT = {"_XK", "_FILON", "_eval_panels", "_MAX_EVALS",
               "_distinct", "_sample", "_seed_samples"}


def node_layout_importers(package_dir):
    """Modules of the package, quadrature aside, that import one of
    quadrature's node-layout names, as "module:name"."""
    found = []
    for path in sorted(Path(package_dir).glob("*.py")):
        if path.name == "quadrature.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[-1] == "quadrature"):
                found += [f"{path.stem}:{alias.name}" for alias in node.names
                          if alias.name in NODE_LAYOUT]
    return found


def test_only_quadrature_knows_the_node_layout(tmp_path):
    """No module but quadrature imports the nodes, the seed budget or the
    panel loops, so a kept table is always quadrature's own _seed_samples;
    every name listed exists, and the check finds a planted import."""
    assert node_layout_importers(Path(quadrature.__file__).parent) == []
    assert all(hasattr(quadrature, name) for name in NODE_LAYOUT)
    (tmp_path / "planted.py").write_text(
        "from .quadrature import _XK, _sample, integrate_finite\n"
        "from szegolab.quadrature import _seed_samples\n", encoding="utf-8")
    assert node_layout_importers(tmp_path) == [
        "planted:_XK", "planted:_sample", "planted:_seed_samples"]


def test_fourier_seed_round_keeps_to_the_evaluation_budget(monkeypatch):
    """A seed is the caller's panels whatever the frequencies: 21 of them
    on [0, 1], which took 40 half-period panels (600 nodes) before the
    phase was integrated exactly, seed one panel, and the halvings stop
    before they would pass a budget of 150 evaluations."""
    monkeypatch.setattr(quadrature, "_MAX_EVALS", 150)
    spy = _Counting(lambda t: np.exp(-1 / np.maximum(t, 1e-300)))
    res = fourier_coefficients(spy, np.arange(21), 1e-12)
    assert spy.points == res.evaluations <= 150
    assert not res.converged


def test_invalid_interval():
    with pytest.raises(ValueError):
        integrate_finite(lambda t: t + 0j, 1.0, 0.0, 1e-8)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=1, max_size=5))
def test_polynomial_oracle(coeffs):
    c = np.asarray(coeffs)
    f = lambda t: np.polyval(c, t) + 0j
    exact = np.polyval(np.polyint(c), 1.0) - np.polyval(np.polyint(c), -1.0)
    res = integrate_finite(f, -1.0, 1.0, 1e-12)
    assert abs(res.value - exact) < 1e-10


def test_fourier_coefficients_closed_form():
    # int_0^1 t exp(-2 pi i k t) dt = 1/2 (k = 0), i/(2 pi k) (k >= 1)
    K = 40
    res = fourier_coefficients(lambda t: t, np.arange(K + 1), 1e-13)
    k = np.arange(1, K + 1)
    assert res.converged
    assert res.value.shape == res.abs_error_estimate.shape == (K + 1,)
    assert np.all(res.abs_error_estimate <= 1e-13)
    assert abs(res.value[0] - 0.5) < 1e-13
    assert np.abs(res.value[1:] - 1j / (2 * np.pi * k)).max() < 1e-13


def test_fourier_coefficients_breakpoints_at_kinks():
    kinks = (0.0, 0.3137, 0.5521, 1.0)   # off every panel grid used
    f = lambda t: np.interp(t, kinks, [1.0, 2.0, 0.5, 1.5])
    res = fourier_coefficients(f, np.arange(26), 1e-12, breakpoints=kinks)
    assert res.converged
    for k in (0, 1, 7, 25):
        ref = integrate_finite(lambda t: f(t) * np.exp(-2j * np.pi * k * t),
                               0.0, 1.0, 1e-12,
                               points=np.linspace(0.0, 1.0, 4 * k + 1))
        assert abs(res.value[k] - ref.value) <= 1e-12


def test_fourier_coefficients_stop_at_max_evals(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_EVALS", 100)
    f = lambda t: np.exp(-1.0 / np.maximum(t, 1e-300))
    res = fourier_coefficients(f, np.arange(4), 1e-14)
    assert not res.converged
    # the seed panel, then its halves, whose halving would pass the budget
    assert res.evaluations == 3 * 15
    assert res.abs_error_estimate.max() > 1e-14


def test_fourier_coefficients_refine_only_the_boundary_layer():
    # exp(-c/t) turns on within about c of 0; only panels there are halved
    f = lambda t: np.exp(-1e-4 / np.maximum(t, 1e-300))
    res = fourier_coefficients(f, np.arange(18), 1e-12)
    assert res.converged
    assert res.evaluations < 100 * 15


def test_fourier_coefficients_any_real_frequencies():
    # int_a^b t exp(-c t) dt with c = 2 pi i nu, for frequencies that are
    # negative, fractional or zero, on an interval left of the origin
    nu = np.array([-2.5, 0.0, 0.3, 7.25, -0.01])
    a, b = -3.0, 0.5
    res = fourier_coefficients(lambda t: t, nu, 1e-13, breakpoints=(a, b))
    c = 2j * np.pi * nu[nu != 0]
    prim = lambda t: -np.exp(-c * t) * (c * t + 1.0) / c ** 2
    exact = np.full(nu.size, 0.5 * (b * b - a * a), dtype=np.complex128)
    exact[nu != 0] = prim(b) - prim(a)
    assert res.converged
    assert np.all(np.abs(res.value - exact) <= 1e-13)


def test_fourier_coefficients_invalid_input():
    f = lambda t: t
    for freqs in (3, np.arange(0), np.ones((2, 2)), [0.0, np.nan]):
        with pytest.raises(ValueError):
            fourier_coefficients(f, freqs, 1e-8)
    with pytest.raises(ValueError):
        fourier_coefficients(f, np.arange(4), 1e-8, breakpoints=(0.5, 0.5))


def _filon_panel_errors(f, freqs, mid, half):
    """Per (panel, frequency): the Filon K, raw |K - G|, QUADPACK's
    rescaling of raw with f's exact resasc, and the rounding level, from an
    independent route: numpy's Legendre fits of the samples on the 15
    Kronrod and the 7 Gauss nodes and scipy's spherical Bessel functions."""
    h = half[:, None]
    y = f((mid[:, None] + h * _XK).ravel()).reshape(mid.size, 15)
    a15 = legendre.legfit(_XK, y.T, 14).T
    a7 = np.zeros_like(a15)
    a7[:, :7] = legendre.legfit(_XK[1::2], y[:, 1::2].T, 6).T
    n = np.arange(15)[:, None, None]
    w = 2.0 * np.pi * h * freqs
    moments = 2.0 * (-1j) ** n * spherical_jn(n, np.abs(w)) * np.sign(w) ** n
    phase = np.exp(-2j * np.pi * np.outer(mid, freqs))
    k = h * phase * np.einsum("pn,npf->pf", a15, moments)
    raw = np.abs(h * np.einsum("pn,npf->pf", a15 - a7, moments))
    resasc = h * (np.abs(y - (y @ _WK / 2)[:, None]) @ _WK)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where(resasc > 0,
                       resasc * np.minimum(1.0, (200 * raw / resasc) ** 1.5),
                       raw)
    # below the smallest normal number rounding is absolute
    noise = 100 * np.finfo(float).eps * h * np.abs(y).sum(axis=1)[:, None]
    return k, raw, err, noise + np.finfo(float).tiny


def _panels(edges):
    """(mid, half) of the panels between edges, sorted by half-width."""
    order = np.argsort(np.diff(edges), kind="stable")
    return 0.5 * (edges[1:] + edges[:-1])[order], 0.5 * np.diff(edges)[order]


def _oracle_case(name):
    """(integrand, frequencies, panels (mid, half)) of an oracle case.  The
    panels of the first cases have many widths, most of them too wide for
    f, so that |K-G| stands well above rounding on many (panel, frequency)
    pairs.  The seed cases take their caller's seed panels: the real jump
    function on compute_G's small-|s| seed, an exp weight on the
    coefficients' seed.  Every integrand is real, as fourier_coefficients
    takes them."""
    seed = quadrature._seed_samples.__wrapped__
    if name == "seed jump":
        jump = JumpFunction(BlaschkeAnnihilator(gen_power_set(3, 20)))
        return (jump, -np.linspace(0.005, 0.0499, 10),
                seed(np.zeros_like, *blaschke._SMALL_SEED)[:2])
    if name == "seed exp c=1.0":
        return (lambda t: np.exp(-1.0 / np.maximum(t, 1e-300)),
                np.arange(41.0),
                seed(np.zeros_like, (0.0, *decades(1.0, 1e-12)[::-1], 1.0),
                     1)[:2])
    if name == "jump":
        jump = JumpFunction(BlaschkeAnnihilator(gen_power_set(3, 20)))
        return (jump, -np.linspace(0.05, 0.6, 12),
                _panels(np.linspace(-200.0, 0.0, 17)))
    c = float(name.removeprefix("exp c="))
    return (lambda t: np.exp(-c / np.maximum(t, 1e-300)), np.arange(41.0),
            _panels(np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 40)])))


@pytest.mark.parametrize("name", [f"exp c={c}" for c in
                                  (1e-4, 1e-3, 1e-2, 0.1, 0.465, 1.0, 5.0)]
                         + ["jump", "seed jump", "seed exp c=1.0"])
def test_fourier_panel_errors_never_below_quadpack(name):
    """The Filon K is the independent route's to rounding, and the error
    is never below QUADPACK's rescaling of the same |K - G| with f's exact
    resasc, of which |A| is a lower bound."""
    f, freqs, (mid, half) = _oracle_case(name)
    k, raw, quadpack, noise = _filon_panel_errors(f, freqs, mid, half)
    vals, err = np.empty(raw.shape, complex), np.empty(raw.shape)
    sums = quadrature._sample(f, mid, half)
    for idx, v, errs in quadrature._fourier_panels(freqs, mid, half, sums):
        vals[idx], err[idx] = v, errs
    assert np.all(np.abs(vals - k) <= noise)
    above = raw > 1e3 * noise
    assert above.sum() >= 0.1 * above.size
    # the bound holds in exact arithmetic; the two routes round differently
    assert np.all(err[above] >= quadpack[above] * (1 - 1e-12))


def test_seed_phases_round_as_the_cycles():
    """On a mesh of 4000 panels on [-4e4, 0], compute_G's small-|s| span
    at half periods of 0.05, every panel's phase is exp(-2 pi i nu m)
    within 1e-12.  The reference takes nu m to within half a cycle exactly
    (m times nu's leading 30 bits is exact), as np.exp of the rounded
    -2 pi i nu m, up to 1.3e4 rad, is itself off by up to 2e-12."""
    mid, half = _panels(np.linspace(-4e4, 0.0, 4001))
    freqs = np.linspace(-0.0499, 0.0499, 101)
    vals = np.empty((mid.size, freqs.size), dtype=np.complex128)
    sums = quadrature._sample(np.ones_like, mid, half)
    for idx, v, _ in quadrature._fourier_panels(freqs, mid, half, sums):
        vals[idx] = v
    # f = 1: every panel's K is 2 h j_0(w) = 2 sin(w)/(2 pi nu)
    vk = np.where(freqs == 0, 10.0, np.sin(10 * np.pi * freqs)
                  / (np.pi * np.where(freqs == 0, 1.0, freqs)))
    lead = np.round(freqs * 2.0 ** 30) / 2.0 ** 30
    cycles = np.outer(mid, lead)
    want = np.exp(-2j * np.pi * (cycles - np.round(cycles)
                                 + np.outer(mid, freqs - lead)))
    assert np.abs(vals / vk - want).max() <= 1e-12


def _filon_weights(w):
    """The Filon rule's node weights at w, K's and G's on the 15 nodes
    (G's zero off the Gauss nodes): the sums' coefficients times 2 (-i)^n
    j_n(w), as fourier_coefficients takes them."""
    unit = np.where(np.arange(15) % 2, 1j, 1.0)[:, None]
    jn = unit * quadrature._spherical_jn(np.array([w]))
    k = quadrature._FILON[:, :15] @ jn
    return k[:, 0], (k - quadrature._FILON[:, 15:30] @ jn)[:, 0]


def test_filon_weights_at_zero_frequency_are_kronrod_and_gauss():
    """At w = 0 the moments are 2, 0, ..., 0, so the Filon weights are the
    Kronrod and the Gauss weights, within 4 ulp, and the rule is the one
    integrate_finite uses."""
    k, g = _filon_weights(0.0)
    assert np.all(np.abs(k - _WK) <= 4 * np.spacing(_WK))
    assert np.all(np.abs(g[1::2] - _WG) <= 4 * np.spacing(_WG))
    assert np.all(g[0::2] == 0) and np.all(k.imag == 0) and np.all(g.imag == 0)


def test_moments_match_scipy():
    """m_n(w) = 2 (-i)^n j_n(w): the series, Miller's and the upward
    recurrence give j_n within 1e-15 of scipy's on both sides of the
    switches at |w| = 2 and 14, at 0 and far out."""
    w = np.array([0.0, 1e-8, -1e-8, 0.3, 1.999, 2.0, 13.9, 14.1, 100.0, 1e5,
                  -13.9, -1e5])
    n = np.arange(15)[:, None]
    assert np.abs(quadrature._spherical_jn(w) - spherical_jn(n, w)).max() <= 1e-15


def _monomial_transform(w, p):
    """int_{-1}^{1} x^p e^{-iwx} dx in closed form, by mpmath at 50 digits:
    the sum of p + 1 integration-by-parts terms at each end."""
    mpmath.mp.dps = 50
    if w == 0:
        return complex(mpmath.mpf(1 + (-1) ** p) / (p + 1))
    c = -1j * mpmath.mpf(w)

    def prim(x):     # an antiderivative of x^p e^{c x}
        return mpmath.exp(c * x) * mpmath.fsum(
            (-1) ** k * mpmath.factorial(p) / mpmath.factorial(p - k)
            * mpmath.mpf(x) ** (p - k) / c ** (k + 1) for k in range(p + 1))
    return complex(prim(1) - prim(-1))


@pytest.mark.parametrize("w", [0.0, 3.0, 40.0, 1e4])
def test_one_panel_integrates_its_interpolant_exactly(w):
    """One panel of half-width 1 integrates x^14 e^{-iwx} and e^{-iwx},
    polynomial amplitudes of its degree, to their closed forms, within
    rounding of the largest term, at any w."""
    nu = np.array([w / (2.0 * np.pi)])
    for p in (0, 14):
        res = fourier_coefficients(lambda t: t ** p, nu, 1.0, (-1.0, 1.0))
        assert abs(res.value[0] - _monomial_transform(w, p)) <= 2e-16


def test_fourier_rescale_is_quadpacks_with_the_antisymmetric_bound():
    """_rescale's r sqrt(r / max(resasc, r)), r = 200 raw, is
    _scaled(raw, max(resasc, 200 raw)) to rounding, zeros included."""
    rng = np.random.default_rng(11)
    raw, resasc = 10.0 ** rng.uniform(-90.0, 90.0, (2, 20_000))
    raw[rng.random(raw.size) < 0.1] = 0.0
    resasc[rng.random(resasc.size) < 0.1] = 0.0
    want = quadrature._scaled(raw, np.maximum(resasc, 200.0 * raw))
    got = quadrature._rescale(raw.copy(), resasc.copy())
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.allclose(got, want, rtol=1e-15, atol=0.0)


# every integral the quadrature module offers: what it exports, less the
# result type and the check itself
QUADRATURE_ENTRY_POINTS = set(quadrature.__all__) - {"QuadratureResult",
                                                     "require"}


def unchecked_quadrature_callers(package_dir):
    """Top-level functions and methods of the package's modules, quadrature
    itself aside, that call a quadrature entry point but neither call
    require, read .converged nor build a QuadratureResult; nested defs count
    for the function that encloses them."""
    found = []
    for path in sorted(Path(package_dir).glob("*.py")):
        if path.name == "quadrature.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        units = [(node.name, node) for node in tree.body
                 if isinstance(node, ast.FunctionDef)]
        units += [(f"{cls.name}.{node.name}", node) for cls in tree.body
                  if isinstance(cls, ast.ClassDef)
                  for node in cls.body if isinstance(node, ast.FunctionDef)]
        for name, unit in units:
            called, reads_converged = set(), False
            for node in ast.walk(unit):
                if isinstance(node, ast.Call):
                    func = node.func
                    called.add(func.id if isinstance(func, ast.Name)
                               else getattr(func, "attr", None))
                elif isinstance(node, ast.Attribute):
                    reads_converged |= node.attr == "converged"
            if (called & QUADRATURE_ENTRY_POINTS and not reads_converged
                    and not called & {"require", "QuadratureResult"}):
                found.append(f"{path.name}:{name}")
    return found


def test_every_quadrature_result_is_checked():
    # no unconverged integral is used silently: each caller checks its result
    assert unchecked_quadrature_callers(Path(quadrature.__file__).parent) == []


PLANTED = """\
from .quadrature import integrate_finite, integrate_left_halfline


def unchecked(f):
    return integrate_finite(f, 0.0, 1.0, 1e-8).value


def checked(f):
    res = integrate_finite(f, 0.0, 1.0, 1e-8, points=(0.5,))
    return res.value if res.converged else None


class Planted:
    def method(self, f):
        def inner(u):
            return integrate_left_halfline(f, 1e-8)
        return inner(0.0).value
"""


def test_quadrature_checker_flags_a_planted_unchecked_caller(tmp_path):
    """The checker finds a function and a method (through a nested def)
    that use a result without reading converged, and passes the one that
    reads it; the entry points include every integrator exported."""
    (tmp_path / "planted.py").write_text(PLANTED, encoding="utf-8")
    assert unchecked_quadrature_callers(tmp_path) == [
        "planted.py:unchecked", "planted.py:Planted.method"]
    assert {"integrate_finite", "integrate_left_halfline",
            "fourier_coefficients"} <= QUADRATURE_ENTRY_POINTS
