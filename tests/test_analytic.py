"""Branch-series solution, final-value limits and the Laplace denominator."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from giantqed.analytic import (ExpPolySolution, IllConditioned,
                               ParityKernel, _series_table,
                               exact_solution,
                               laplace_denominator,
                               laplace_denominator_derivative,
                               markovian_effective_rate, parity_kernel,
                               steady_state)
from giantqed.dde import integrate
from giantqed.model import (ConfigError, InitialState, SystemConfig,
                            delay_table)


def _series(topology, parity, *, eta=0.3, phi=0.0, delays=3):
    cfg = SystemConfig.from_phase(topology, eta=eta, phi=phi)
    state = (InitialState.symmetric() if parity > 0
             else InitialState.antisymmetric())
    return cfg, exact_solution(cfg, state, t_max=delays * cfg.delay)


# ---------------------------------------------------------------------------
# branch polynomials (resonant phase, gamma = 1)
# ---------------------------------------------------------------------------
#
# The first four branches can be integrated by hand from the recursion
# P_l(tau) = -sum_n A_n Int_0^tau P_{l-n}.  The coefficient tables below (in
# ascending powers of tau - l*delay) were frozen from that hand derivation
# before the module was written.

HAND_BRANCHES = {
    ("separate", +1): [[1.0],
                       [0.0, -1.5],
                       [0.0, -1.0, 1.125],
                       [0.0, -0.5, 1.5, -0.5625]],
    ("separate", -1): [[1.0],
                       [0.0, -0.5],
                       [0.0, 1.0, 0.125],
                       [0.0, 0.5, -0.5, -1.0 / 48.0]],
    ("braided", +1): [[1.0],
                      [0.0, -1.5],
                      [0.0, -1.0, 1.125],
                      [0.0, -0.5, 1.5, -0.5625]],
    ("braided", -1): [[1.0],
                      [0.0, 1.5],
                      [0.0, -1.0, 1.125],
                      [0.0, 0.5, -1.5, 0.5625]],
}


@pytest.mark.parametrize("topology,parity", sorted(HAND_BRANCHES))
def test_branch_polynomials_match_hand_integration(topology, parity):
    _, sol = _series(topology, parity)
    assert sol.decay == pytest.approx(1.0, rel=1e-15)   # A_0 = N*gamma/2
    expected = HAND_BRANCHES[(topology, parity)]
    assert len(sol.branches) == len(expected)
    for poly, ref in zip(sol.branches, expected):
        assert np.allclose(poly, np.asarray(ref, dtype=complex),
                           rtol=0.0, atol=1e-15)
        assert np.allclose(poly.imag, 0.0, atol=1e-15)


def test_named_coefficients_at_resonance():
    """Two landmarks of the symmetric resonant series: the linear term of the
    first branch is -3*gamma/2 and the quadratic term of the second is
    (3*gamma/2)^2 / 2 = 9/8 gamma^2 (both topologies share them)."""
    for topology in ("separate", "braided"):
        gamma = 2.0
        cfg = SystemConfig.from_phase(topology, eta=0.3, phi=0.0, gamma=gamma)
        sol = exact_solution(cfg, InitialState.symmetric(), t_max=2 * cfg.delay)
        assert sol.branches[1][1] == pytest.approx(-1.5 * gamma, rel=1e-15)
        assert sol.branches[2][2] == pytest.approx(1.125 * gamma ** 2,
                                                   rel=1e-15)


def test_symmetric_series_is_topology_blind_at_resonance():
    """phi = 0 makes the symmetric tables of both layouts identical, so the
    whole series must coincide branch by branch."""
    _, sep = _series("separate", +1, delays=7)
    _, brd = _series("braided", +1, delays=7)
    for a, b in zip(sep.branches, brd.branches):
        assert np.allclose(a, b, rtol=0.0, atol=1e-15)
    t = np.linspace(0.0, 7.9 * sep.delay, 101)
    assert np.allclose(sep.evaluate(t), brd.evaluate(t), rtol=0.0,
                       atol=1e-14)


def test_series_scale_and_atomic_split():
    cfg = SystemConfig.from_phase("separate", eta=0.2, phi=math.pi)
    state = InitialState.antisymmetric()
    sol = exact_solution(cfg, state, t_max=4 * cfg.delay)
    assert sol.parity == -1
    assert sol.state == state
    c_a, c_b = sol.atomic(0.0)
    assert c_a == pytest.approx(state.c_a)
    assert c_b == pytest.approx(-state.c_a)


def test_evaluate_guards_horizon_and_negative_times():
    cfg, sol = _series("separate", +1, delays=2)
    assert sol.horizon == pytest.approx(3 * cfg.delay)
    assert sol.evaluate(-1.0) == 0.0
    sol.evaluate(2.99 * cfg.delay)              # still inside
    with pytest.raises(ConfigError):
        sol.evaluate(3.0 * cfg.delay)
    with pytest.raises(ConfigError):
        sol.evaluate(np.array([0.0, 10.0 * cfg.delay]))


def test_evaluate_refuses_cancelled_digits():
    """Braided antisymmetric at phi = 2pi: the branches grow and cancel (their
    sum's rounding bound passes 1e-6 by t ~ 30), but the local form answers
    to t = 40 within 1e-6 of the integrator and settles on the trapped
    population 25/36.  A table whose rows cancel is still refused."""
    cfg = SystemConfig.from_phase("braided", eta=0.2, phi=2 * math.pi)
    state = InitialState.antisymmetric()
    sol = exact_solution(cfg, state, t_max=40.5)
    traj = integrate(cfg, state, t_max=40.0, steps_per_delay=100)
    c_a, c_b = sol.atomic(traj.t)
    assert np.max(np.abs(np.abs(c_a) ** 2 - traj.pop_a)) < 1e-6
    assert abs(c_a[-1]) ** 2 + abs(c_b[-1]) ** 2 == pytest.approx(25 / 36,
                                                                  abs=1e-12)
    cancelling = ExpPolySolution(local=np.array([[1.0, 0.0], [1e12, -1e12]]),
                                 coeffs=np.array([1.0]),
                                 config=SystemConfig("separate"),
                                 state=InitialState.symmetric())
    assert cancelling.evaluate(0.5) == pytest.approx(math.exp(-0.5),
                                                     rel=1e-15)
    with pytest.raises(IllConditioned, match="rounding bound"):
        cancelling.evaluate(np.array([0.5, 1.5]))


def _shifted(poly, delay, shift):
    """Coefficients in powers of s of P(s*delay + shift), exactly."""
    out = [Fraction(0)] * len(poly)
    for k, p in enumerate(poly):
        for j in range(k + 1):
            out[j] += p * math.comb(k, j) * delay ** j * shift ** (k - j)
    return out


def test_local_form_resums_the_branches():
    """R_m(u) = sum_{l<=m} E^(m-l) P_l(u + (m-l) delay) for m <= 5, in exact
    rationals: E is a formal parameter of the recursion, so a rational
    stand-in for exp(-A_0 delay) makes both sides exact."""
    coeffs = np.array([Fraction(1), Fraction(-3, 2), Fraction(1, 3),
                       Fraction(5, 4), Fraction(-1, 2), Fraction(2, 7)],
                      dtype=object)
    delay, shrink = Fraction(2, 5), Fraction(3, 7)
    branches = _series_table(coeffs, 6, 1, 0)
    local = _series_table(coeffs, 6, delay, shrink)
    for m in range(6):
        resummed = [Fraction(0)] * 6
        for l in range(m + 1):
            shifted = _shifted(branches[l], delay, (m - l) * delay)
            resummed = [a + shrink ** (m - l) * b
                        for a, b in zip(resummed, shifted)]
        assert list(local[m]) == resummed


@pytest.mark.parametrize("topology,parity,eta,phi,t_max,steps", [
    ("separate", +1, 0.03, 0.7 * math.pi, 3.0, 100),
    ("separate", -1, 0.2, 2 * math.pi, 61.0, 100),     # trapped interior
    ("braided", +1, 1.0, 0.3 * math.pi, 20.0, 100),
    ("braided", -1, 0.2, 2 * math.pi, 80.0, 100),      # the braided BIC
    ("separate", +1, 4.9, 0.3 * math.pi, 40.0, 250),
    ("braided", -1, 20.0, 0.5 * math.pi, 400.0, 1000),
])
def test_local_form_matches_the_integrator(topology, parity, eta, phi,
                                           t_max, steps):
    """Within criterion 1's bound of the method-of-steps integrator."""
    cfg = SystemConfig.from_phase(topology, eta=eta, phi=phi)
    state = (InitialState.symmetric() if parity > 0
             else InitialState.antisymmetric())
    traj = integrate(cfg, state, t_max=t_max, steps_per_delay=steps)
    sol = exact_solution(cfg, state, t_max=float(traj.t[-1]))
    c_a, c_b = sol.atomic(traj.t)
    assert np.max(np.abs(np.abs(c_a) ** 2 - traj.pop_a)) < 1e-6
    assert np.max(np.abs(np.abs(c_b) ** 2 - traj.pop_b)) < 1e-6


def _branch_sum(sol, t):
    """The paper's branch series summed branch by branch, with its rounding
    bound eps * sum_l exp(-A_0 tau_l) sum_k |p_lk| tau_l^k."""
    polyval = np.polynomial.polynomial.polyval
    out = np.zeros(t.shape, dtype=complex)
    bound = np.zeros(t.shape)
    for l, poly in enumerate(sol.branches):
        tau = np.maximum(t - l * sol.delay, 0.0)
        live = t >= l * sol.delay
        envelope = np.where(live, np.exp(-sol.decay * tau), 0.0)
        out += envelope * polyval(tau, poly)
        bound += envelope * polyval(tau, np.abs(poly))
    return out, np.finfo(float).eps * bound


@pytest.mark.parametrize("topology,parity,eta,phi,t_max", [
    ("separate", +1, 0.15, 0.5 * math.pi, 8.0),
    ("braided", -1, 0.2, 2 * math.pi, 40.0),
    ("separate", -1, 0.2, 2 * math.pi, 61.0),
    ("braided", +1, 3.0, 0.3 * math.pi, 60.0),
])
def test_local_form_matches_the_branch_series(topology, parity, eta, phi,
                                              t_max):
    """Wherever the branch sum's own bound is below 1e-9, the local form
    agrees with it within that bound."""
    cfg = SystemConfig.from_phase(topology, eta=eta, phi=phi)
    state = (InitialState.symmetric() if parity > 0
             else InitialState.antisymmetric())
    sol = exact_solution(cfg, state, t_max=t_max)
    t = np.linspace(0.0, t_max, 4001)
    series, bound = _branch_sum(sol, t)
    sharp = bound < 1e-9
    assert sharp.mean() > 0.3
    assert np.all(np.abs(sol.evaluate(t[sharp]) - series[sharp])
                  <= bound[sharp] + 1e-14)


def test_exact_solution_input_validation():
    cfg = SystemConfig.from_phase("separate", eta=0.1, phi=0.0)
    with pytest.raises(ConfigError):
        exact_solution(cfg, InitialState(c_a=1.0, c_b=0.0), t_max=cfg.delay)
    with pytest.raises(ConfigError):
        exact_solution(cfg, InitialState.symmetric(), t_max=-1 * cfg.delay)
    with pytest.raises(ConfigError):
        exact_solution(cfg, InitialState.symmetric(), t_max=math.inf)
    zero_delay = SystemConfig(topology="separate", delay=0.0)
    with pytest.raises(ConfigError):
        exact_solution(zero_delay, InitialState.symmetric(), t_max=cfg.delay)
    # t_max chooses just enough branches
    sol = exact_solution(cfg, InitialState.symmetric(), t_max=2.5 * cfg.delay)
    assert len(sol.branches) == 3


def test_exact_series_budget_is_checked_before_allocating():
    """1000 delays (1001 rows) are accepted; one more is refused at once."""
    cfg = SystemConfig.from_phase("separate", eta=0.1, phi=0.0)
    state = InitialState.symmetric()
    assert len(exact_solution(cfg, state, t_max=1000 * cfg.delay).local) == 1001
    with pytest.raises(ConfigError, match="at most 1000 delays"):
        exact_solution(cfg, state, t_max=1001 * cfg.delay)


def test_exact_series_holds_one_table():
    """The solution keeps the local table alone (16 bytes per entry); the
    branches are built on first access, by the same recursion."""
    cfg = SystemConfig.from_phase("braided", eta=0.2, phi=2 * math.pi)
    tracemalloc.start()
    try:
        sol = exact_solution(cfg, InitialState.antisymmetric(), t_max=999 * cfg.delay)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 16.1e6
    assert [len(p) for p in sol.branches] == list(range(1, 1001))


# ---------------------------------------------------------------------------
# Laplace denominator
# ---------------------------------------------------------------------------

def test_denominator_at_origin_encodes_dark_conditions():
    """D_p(0) = 0 exactly on the trapping phases; everything else radiates."""
    def d0(topology, parity, phi):
        cfg = SystemConfig.from_phase(topology, eta=0.25, phi=phi)
        return laplace_denominator(cfg, parity, 0.0)

    assert abs(d0("separate", -1, 2 * math.pi)) < 1e-12
    assert abs(d0("separate", -1, 3 * math.pi)) < 1e-12
    assert abs(d0("separate", +1, 3 * math.pi)) < 1e-12
    assert abs(d0("braided", -1, 2 * math.pi)) < 1e-12
    assert abs(d0("braided", +1, 3 * math.pi)) < 1e-12
    # counterexamples
    assert abs(d0("braided", -1, 3 * math.pi)) > 0.1
    assert abs(d0("separate", +1, 2 * math.pi)) > 0.1
    assert abs(d0("separate", -1, 2.3 * math.pi)) > 0.01


def test_denominator_derivative_matches_finite_difference():
    cfg = SystemConfig.from_phase("braided", eta=0.8, phi=1.1)
    s0 = -0.3 + 0.9j
    h = 1e-6
    fd = (laplace_denominator(cfg, +1, s0 + h)
          - laplace_denominator(cfg, +1, s0 - h)) / (2 * h)
    assert laplace_denominator_derivative(cfg, +1, s0) == pytest.approx(
        fd, rel=1e-8)


def test_denominator_vectorizes():
    cfg = SystemConfig.from_phase("separate", eta=0.5, phi=0.4)
    s = np.array([0.0, -1.0 + 2.0j, 0.5j])
    vec = laplace_denominator(cfg, -1, s)
    assert vec.shape == (3,)
    for si, vi in zip(s, vec):
        assert vi == pytest.approx(laplace_denominator(cfg, -1, si))


@pytest.mark.parametrize("n_legs", [2, 3])
@pytest.mark.parametrize("topology", ["separate", "braided"])
def test_system_alone_and_as_a_row_evaluate_bit_for_bit(topology, n_legs):
    """A one-system kernel and the same system as row 0 of a row kernel
    give the same (D_p, D_p') bit for bit, at a scalar s and at the array
    s = -i delta_k that ``scattering`` passes."""
    cfg = SystemConfig.from_phase(topology, eta=0.7, phi=1.3, n_legs=n_legs)
    other = SystemConfig.from_phase(topology, eta=0.2, phi=2.9, n_legs=n_legs)
    for parity in (+1, -1):
        one = parity_kernel(cfg, parity)
        stack = ParityKernel(np.stack((one.coeffs,
                                       parity_kernel(other, parity).coeffs)),
                             np.array([cfg.delay, other.delay]))
        s = -0.4 + 1.7j
        rows = stack.evaluate(np.array([s, 0.3j]))
        assert one.evaluate(s) == (complex(rows[0][0]), complex(rows[1][0]))
        s = -1j * np.linspace(-3.0, 3.0, 61)
        rows = stack.rows(np.zeros(s.size, dtype=int)).evaluate(s)
        alone = one.evaluate(s)
        assert np.array_equal(alone[0], rows[0])
        assert np.array_equal(alone[1], rows[1])


def test_row_values_do_not_depend_on_the_batch():
    """6,668 rows of both parities in one evaluate, whose n*delay*A_n
    product (417 kB) is past the size at which numpy reuses an unnamed
    temporary in place: every row's (D_p, D_p') is bit for bit the one the
    row gives alone."""
    rng = np.random.default_rng(24)
    points = 3334
    table = delay_table(SystemConfig(topology="braided", delay=0.0))
    coeffs = table.collective((+1, -1), rng.uniform(0.0, 2 * math.pi, points))
    kernel = ParityKernel(coeffs.reshape(2 * points, -1),
                          rng.uniform(0.01, 3.0, 2 * points))
    s = rng.normal(size=2 * points) + 1j * rng.normal(size=2 * points)
    batch = kernel.evaluate(s)
    for i in range(2 * points):
        alone = ParityKernel(kernel.coeffs[i], kernel.delay[i]).evaluate(s[i])
        assert alone == (batch[0][i], batch[1][i]), i


# ---------------------------------------------------------------------------
# final value theorem
# ---------------------------------------------------------------------------

def test_steady_state_fractions():
    """Surviving population fractions of the trapped configurations.

    With |c(0)| = 1 (collective normalisation of a parity eigenstate) the
    final-value amplitude is 1/(1 + 3*eta) when all retardation terms pull
    in the same direction and 1/(1 + eta) in the staggered classes.
    """
    eta = 0.2

    def pop(topology, parity, phi):
        cfg = SystemConfig.from_phase(topology, eta=eta, phi=phi)
        state = (InitialState.symmetric() if parity > 0
                 else InitialState.antisymmetric())
        return steady_state(cfg, state)

    heavy = pop("separate", -1, 2 * math.pi)
    assert heavy.kind == "dark"
    assert heavy.phase_class == 0
    assert heavy.amplitude == pytest.approx(1.0 / (1.0 + 3 * eta), rel=1e-12)
    assert heavy.population == pytest.approx((1.0 / 1.6) ** 2, rel=1e-12)

    for topology, parity, phi, cls in [("separate", -1, 3 * math.pi, 1),
                                       ("separate", +1, 3 * math.pi, 1),
                                       ("braided", +1, 3 * math.pi, 1),
                                       ("braided", -1, 2 * math.pi, 0)]:
        light = pop(topology, parity, phi)
        assert light.kind == "dark"
        assert light.phase_class == cls
        assert light.amplitude == pytest.approx(1.0 / (1.0 + eta), rel=1e-12)

    gone = pop("braided", -1, 3 * math.pi)
    assert gone.kind == "radiant"
    assert gone.population == 0.0
    assert pop("separate", +1, 2.37 * math.pi).kind == "radiant"
    assert pop("separate", +1, 2.37 * math.pi).phase_class is None


def test_steady_state_long_time_agreement():
    """The branch series must actually settle onto the final-value amplitude.

    Checked at t = 15/gamma: late enough for the radiating transient to be
    far below 1e-8, early enough that the series is still well conditioned
    in every trapped class (see the ExpPolySolution note on cancellation at
    very late times; the braided antisymmetric noise floor here is ~2e-10).
    """
    eta = 0.2
    for topology, parity, phi in [("separate", -1, 2 * math.pi),
                                  ("separate", -1, 3 * math.pi),
                                  ("braided", -1, 2 * math.pi)]:
        cfg = SystemConfig.from_phase(topology, eta=eta, phi=phi)
        state = (InitialState.symmetric() if parity > 0
                 else InitialState.antisymmetric())
        sol = exact_solution(cfg, state, t_max=15.0)
        limit = steady_state(cfg, state).amplitude
        assert abs(sol.evaluate(15.0 - 1e-9) - limit) < 1e-8


def test_steady_state_requires_parity():
    cfg = SystemConfig.from_phase("separate", eta=0.2, phi=2 * math.pi)
    with pytest.raises(ConfigError):
        steady_state(cfg, InitialState(c_a=1.0, c_b=0.0))


# ---------------------------------------------------------------------------
# Markovian effective rate
# ---------------------------------------------------------------------------

def test_markovian_rate_dicke_limit():
    """As eta -> 0 at phi = 0 the symmetric rate approaches 4 atoms' worth of
    superradiance, 2 * (2N)^2 * gamma/4 = 8 gamma for N = 2."""
    cfg = SystemConfig.from_phase("separate", eta=1e-8, phi=0.0)
    rate = markovian_effective_rate(cfg, InitialState.symmetric())
    assert rate.real == pytest.approx(8.0, rel=1e-6)
    assert rate.imag == pytest.approx(0.0, abs=1e-6)


def test_markovian_rate_retardation_correction():
    """First-order retardation enhances the separate symmetric rate by the
    documented 1/(1 - delay * sum n A_n) drag factor."""
    eta = 0.05
    cfg = SystemConfig.from_phase("separate", eta=eta, phi=0.0)
    rate = markovian_effective_rate(cfg, InitialState.symmetric())
    # self + cross at phi=0: A = {0:1, 1:1.5, 2:1, 3:0.5}, sum=4, drag=5*eta
    assert rate == pytest.approx(8.0 / (1.0 - 5.0 * eta), rel=1e-12)


def test_markovian_rate_requires_parity():
    cfg = SystemConfig.from_phase("separate", eta=0.1, phi=0.0)
    with pytest.raises(ConfigError):
        markovian_effective_rate(cfg, InitialState(c_a=0.8, c_b=0.1))
