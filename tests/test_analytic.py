"""Branch-series solution, final-value limits and the Laplace denominator."""

import math

import numpy as np
import pytest

from giantqed.analytic import (ExpPolySolution, IllConditioned,
                               OutOfHorizon, ParityKernel,
                               coefficients_to_csv, exact_solution,
                               laplace_denominator,
                               laplace_denominator_derivative,
                               markovian_effective_rate, parity_kernel,
                               steady_state)
from giantqed.model import ConfigError, InitialState, SystemConfig


def _series(topology, parity, *, eta=0.3, phi=0.0, n_branches=4):
    cfg = SystemConfig.from_phase(topology, eta=eta, phi=phi)
    state = (InitialState.symmetric() if parity > 0
             else InitialState.antisymmetric())
    return cfg, exact_solution(cfg, state, n_branches=n_branches)


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
        sol = exact_solution(cfg, InitialState.symmetric(), n_branches=3)
        assert sol.branches[1][1] == pytest.approx(-1.5 * gamma, rel=1e-15)
        assert sol.branches[2][2] == pytest.approx(1.125 * gamma ** 2,
                                                   rel=1e-15)


def test_symmetric_series_is_topology_blind_at_resonance():
    """phi = 0 makes the symmetric tables of both layouts identical, so the
    whole series must coincide branch by branch."""
    _, sep = _series("separate", +1, n_branches=8)
    _, brd = _series("braided", +1, n_branches=8)
    for a, b in zip(sep.branches, brd.branches):
        assert np.allclose(a, b, rtol=0.0, atol=1e-15)
    t = np.linspace(0.0, 7.9 * sep.delay, 101)
    assert np.allclose(sep(t), brd(t), rtol=0.0, atol=1e-14)


def test_series_scale_and_atomic_split():
    cfg = SystemConfig.from_phase("separate", eta=0.2, phi=math.pi)
    state = InitialState.antisymmetric()
    sol = exact_solution(cfg, state, n_branches=5)
    assert sol.parity == -1
    assert sol.scale == pytest.approx(state.c_a)
    c_a, c_b = sol.atomic(0.0)
    assert c_a == pytest.approx(state.c_a)
    assert c_b == pytest.approx(-state.c_a)


def test_evaluate_guards_horizon_and_negative_times():
    cfg, sol = _series("separate", +1, n_branches=3)
    assert sol.horizon == pytest.approx(3 * cfg.delay)
    assert sol(-1.0) == 0.0
    sol(2.99 * cfg.delay)                       # still inside
    with pytest.raises(OutOfHorizon):
        sol(3.0 * cfg.delay)
    with pytest.raises(OutOfHorizon):
        sol(np.array([0.0, 10.0 * cfg.delay]))


def test_evaluate_refuses_cancelled_digits():
    """Braided antisymmetric at phi = 2pi: the branches grow and cancel, so
    past t ~ 30 the rounding bound passes 1e-6 and the series refuses."""
    cfg = SystemConfig.from_phase("braided", eta=0.2, phi=2 * math.pi)
    sol = exact_solution(cfg, InitialState.antisymmetric(), t_max=40.5)
    sol(np.linspace(0.0, 15.0, 151))                 # still well conditioned
    with pytest.raises(IllConditioned, match="rounding bound"):
        sol(np.linspace(0.0, 40.0, 401))
    with pytest.raises(IllConditioned):
        sol.atomic(30.0)


def test_exact_solution_input_validation():
    cfg = SystemConfig.from_phase("separate", eta=0.1, phi=0.0)
    with pytest.raises(ConfigError):
        exact_solution(cfg, InitialState(c_a=1.0, c_b=0.0), n_branches=2)
    with pytest.raises(ConfigError):
        exact_solution(cfg, InitialState.symmetric())        # no extent given
    with pytest.raises(ConfigError):
        exact_solution(cfg, InitialState.symmetric(), n_branches=0)
    with pytest.raises(ConfigError):
        exact_solution(cfg, InitialState.symmetric(), t_max=math.inf)
    zero_delay = SystemConfig(topology="separate", delay=0.0)
    with pytest.raises(ConfigError):
        exact_solution(zero_delay, InitialState.symmetric(), n_branches=2)
    # t_max chooses just enough branches
    sol = exact_solution(cfg, InitialState.symmetric(), t_max=2.5 * cfg.delay)
    assert len(sol.branches) == 3


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
        assert abs(sol(15.0 - 1e-9) - limit) < 1e-8


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


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def test_coefficients_to_csv_round_trip(tmp_path):
    cfg, sol = _series("braided", -1, eta=0.4, phi=0.0, n_branches=4)
    path = tmp_path / "branches.csv"
    coefficients_to_csv(sol, path)
    lines = path.read_text().splitlines()
    assert lines[-1 - sum(len(b) for b in sol.branches)] == "l,j,re_p,im_p"
    rows = [line.split(",") for line in lines
            if line and not line.startswith("#") and line[0].isdigit()]
    rebuilt: dict[int, dict[int, complex]] = {}
    for l, j, re, im in rows:
        rebuilt.setdefault(int(l), {})[int(j)] = float(re) + 1j * float(im)
    for l, poly in enumerate(sol.branches):
        for j, p in enumerate(poly):
            assert rebuilt[l][j] == p
