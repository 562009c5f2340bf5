"""Scattering amplitudes and decay-pole tracking, cross-checked against an
independent plane-wave matching solver written directly from the jump
conditions (no shared code with the module under test)."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from giantqed.analytic import (ParityKernel, exact_solution,
                               laplace_denominator,
                               laplace_denominator_derivative, parity_kernel)
from giantqed import spectral
from giantqed.model import (TOPOLOGIES, ConfigError, InitialState,
                            SystemConfig, delay_table)
from giantqed.spectral import (NonConvergence, _ramp, connected_pole,
                               markovian_rates, scan_decay_rates, scattering)


def _matching_solver(cfg, delta):
    """Scattering by explicit plane-wave matching at the 2N legs.

    Right/left movers are piecewise plane waves; each leg j of atom m
    imposes the jump rho_j - rho_{j-1} = -(i g / v) e_m exp(-i k x_j) (and
    the mirrored one for left movers), the field driving an atom is the
    two-sided average at its legs, and g = sqrt(gamma v / 2).
    """
    v, g = cfg.v_g, math.sqrt(cfg.gamma * cfg.v_g / 2.0)
    k = (cfg.omega0 + delta) / v
    legs = sorted([(x, 0) for x in cfg.leg_positions(0)] +
                  [(x, 1) for x in cfg.leg_positions(1)])
    mat = np.zeros((2, 2), dtype=complex)
    rhs = np.zeros(2, dtype=complex)
    mat[0, 0] = mat[1, 1] = delta
    for j, (xj, mj) in enumerate(legs):
        rhs[mj] += g * cmath.exp(1j * k * xj)
        for jp, (xp, mp) in enumerate(legs):
            w_r = 1.0 if jp < j else (0.5 if jp == j else 0.0)
            w_l = 1.0 if jp > j else (0.5 if jp == j else 0.0)
            mat[mj, mp] += g * (1j * g / v) * (
                w_r * cmath.exp(1j * k * (xj - xp))
                + w_l * cmath.exp(-1j * k * (xj - xp)))
    e = np.linalg.solve(mat, rhs)
    t = 1.0 - (1j * g / v) * sum(e[m] * cmath.exp(-1j * k * x)
                                 for x, m in legs)
    r = -(1j * g / v) * sum(e[m] * cmath.exp(1j * k * x) for x, m in legs)
    return complex(t), complex(r)


# closed-form amplitudes at eta=0.3, phi=1.3, delta=0.7*gamma, frozen from
# the matching solver above before the module formulas were transcribed
FROZEN_SPOT = {
    "separate": (0.006052239448403142 + 0.09801784285347735j,
                 0.9932745729517926 - 0.06133103298856512j),
    "braided": (0.9996442456004441 + 0.013966164646002949j,
                -0.00031743320024829526 + 0.02272064521890944j),
}


@pytest.mark.parametrize("topology", sorted(FROZEN_SPOT))
def test_frozen_scattering_spot_values(topology):
    cfg = SystemConfig.from_phase(topology, eta=0.3, phi=1.3)
    t, r = scattering(cfg, 0.7)
    t_ref, r_ref = FROZEN_SPOT[topology]
    assert t == pytest.approx(t_ref, abs=1e-14)
    assert r == pytest.approx(r_ref, abs=1e-14)


def test_scattering_matches_matching_solver():
    rng = np.random.default_rng(20240817)
    for n_legs in np.repeat([2, 1, 3, 4], 25):
        topology = ("separate", "braided")[rng.integers(2)]
        cfg = SystemConfig.from_phase(topology,
                                      eta=float(rng.uniform(0.05, 1.5)),
                                      phi=float(rng.uniform(0.0, 4 * math.pi)),
                                      gamma=float(rng.uniform(0.5, 2.0)),
                                      n_legs=int(n_legs))
        delta = float(rng.uniform(-8.0, 8.0)) * cfg.gamma
        t, r = scattering(cfg, delta)
        t_ref, r_ref = _matching_solver(cfg, delta)
        assert abs(t - t_ref) < 1e-12
        assert abs(r - r_ref) < 1e-12


def test_scattering_vectorizes_and_limits():
    cfg = SystemConfig.from_phase("braided", eta=0.2, phi=0.31 * math.pi)
    deltas = np.linspace(-5.0, 5.0, 11)
    t, r = scattering(cfg, deltas)
    assert t.shape == r.shape == (11,)
    # far off resonance the photon barely notices the atoms
    t_far, r_far = scattering(cfg, 1e6)
    assert abs(t_far) == pytest.approx(1.0, abs=1e-5)
    assert abs(r_far) == pytest.approx(0.0, abs=1e-5)


@settings(max_examples=60, deadline=None)
@given(topology=st.sampled_from(["separate", "braided"]),
       eta=st.floats(0.01, 2.0),
       phi=st.floats(0.0, 4 * math.pi),
       delta=st.floats(-20.0, 20.0))
def test_scattering_is_unitary(topology, eta, phi, delta):
    cfg = SystemConfig.from_phase(topology, eta=eta, phi=phi)
    t, r = scattering(cfg, delta)
    # the measure-zero 0/0 points (exact trapping resonance) are nan by
    # contract and checked separately
    assume(not math.isnan(abs(t)))
    assert abs(t) ** 2 + abs(r) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_exact_trapping_resonance_is_removable():
    cfg = SystemConfig.from_phase("separate", eta=1.0, phi=0.0)
    # a subnormal D_p next to the resonance is the same nan, without an
    # overflow in the division
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (0.0, 1e-310, -1e-310, 5e-324):
            t, r = scattering(cfg, d)
            assert math.isnan(abs(t)) and math.isnan(abs(r))
    for d in (1e-8, -1e-8):
        t, r = scattering(cfg, d)
        assert abs(t) < 1e-12                      # smooth limit: t -> 0
        assert r == pytest.approx(-1.0, abs=1e-6)  # full reflection, pi shift


def test_markovian_rates_known_phases():
    sep0 = SystemConfig.from_phase("separate", eta=0.1, phi=0.0)
    gp, gm = markovian_rates(sep0)
    assert gp == pytest.approx(8.0, abs=1e-12)       # all legs constructive
    assert gm == pytest.approx(0.0, abs=1e-12)
    brd_pi = SystemConfig.from_phase("braided", eta=0.1, phi=math.pi)
    gp, gm = markovian_rates(brd_pi)
    assert gp == pytest.approx(0.0, abs=1e-12)       # interleaving flips roles
    assert gm == pytest.approx(8.0, abs=1e-12)


def test_poles_are_roots_of_their_own_parity_denominator():
    rng = np.random.default_rng(11)
    for _ in range(20):
        topology = ("separate", "braided")[rng.integers(2)]
        cfg = SystemConfig.from_phase(topology,
                                      eta=float(rng.uniform(0.01, 0.3)),
                                      phi=float(rng.uniform(0.0, 2 * math.pi)),
                                      gamma=float(rng.uniform(0.5, 2.0)))
        for parity in (+1, -1):
            s = connected_pole(cfg, parity)
            assert abs(laplace_denominator(cfg, parity, s)) < 1e-10 * cfg.gamma


def test_single_pole_reconstructs_late_time_decay():
    """Away from trapping points one pole per parity dominates: its residue
    term 1/D'(s) exp(s t) must converge onto the exact series as the faster
    poles die out."""
    cfg = SystemConfig.from_phase("separate", eta=0.25, phi=0.8 * math.pi)
    sol = exact_solution(cfg, InitialState.symmetric(), t_max=11.0)
    s = connected_pole(cfg, +1)
    residue = 1.0 / laplace_denominator_derivative(cfg, +1, s)
    err6 = abs(sol(6.0) - residue * cmath.exp(s * 6.0))
    err10 = abs(sol(10.0) - residue * cmath.exp(s * 10.0))
    assert err6 < 1e-8
    assert err10 < 1e-11
    assert err10 < err6


def test_connected_pole_frozen_landmarks():
    """Two pinned points of the rate-vs-spacing landscape at omega0=50:
    the braided peak at omega0 dx = pi and the separate one at 1.615 pi
    (both antisymmetric); the braided symmetric channel there is dark."""
    brd = SystemConfig(topology="braided", gamma=1.0,
                       delay=math.pi / 50.0, omega0=50.0)
    rate = -2.0 * connected_pole(brd, -1)
    assert rate == pytest.approx(17.408635364273756 + 4.963744866037782j,
                                 abs=1e-9)
    assert abs(-2.0 * connected_pole(brd, +1)) < 1e-12
    sep = SystemConfig(topology="separate", gamma=1.0,
                       delay=1.615 * math.pi / 50.0, omega0=50.0)
    rate = -2.0 * connected_pole(sep, -1)
    assert rate == pytest.approx(9.818174644361324 - 3.2116248150827023j,
                                 abs=1e-9)


def test_connected_pole_zero_delay_is_markovian():
    cfg = SystemConfig(topology="braided", gamma=1.0, delay=0.0, omega0=3.0)
    gp, gm = markovian_rates(cfg)
    assert -2.0 * connected_pole(cfg, +1) == pytest.approx(gp, abs=1e-12)
    assert -2.0 * connected_pole(cfg, -1) == pytest.approx(gm, abs=1e-12)


def test_scan_grid_and_residuals():
    scan = scan_decay_rates("separate", n_points=25, x_max=2.0)
    xs = scan.omega0_dx_over_pi
    assert xs[0] == pytest.approx(2.0 / 25)
    assert xs[-1] == pytest.approx(2.0)
    assert np.all(scan.rate_plus.real > -1e-10)
    assert np.all(scan.rate_minus.real > -1e-10)
    assert scan.residual_plus.max() < 1e-10
    assert scan.residual_minus.max() < 1e-10
    x_pk, v_pk = scan.peak()
    k = int(np.argmax(np.maximum(scan.rate_plus.real, scan.rate_minus.real)))
    assert x_pk == pytest.approx(xs[k])
    assert v_pk >= scan.rate_plus.real.max() - 1e-12


def test_scan_is_smooth_away_from_branch_collisions():
    """Between the integer-x collision points the connected branches are
    smooth; large steps there would mean the tracker hopped families."""
    scan = scan_decay_rates("braided", n_points=41, x_min=1.2, x_max=1.8)
    assert np.max(np.abs(np.diff(scan.rate_plus))) < 1.0
    assert np.max(np.abs(np.diff(scan.rate_minus))) < 1.0


def _check_against_connected_pole(scan, topology):
    """Every scan point's poles against ``connected_pole`` of its own config."""
    for i, x in enumerate(scan.omega0_dx_over_pi):
        cfg = SystemConfig(topology=topology, gamma=scan.gamma,
                           delay=x * math.pi / scan.omega0, omega0=scan.omega0)
        for parity, rates in ((+1, scan.rate_plus), (-1, scan.rate_minus)):
            assert abs(-2.0 * connected_pole(cfg, parity) - rates[i]) < 1e-12


def test_readme_scan_matches_connected_pole_point_by_point():
    """The batched ramp of the README braided scan gives each point's own
    connected pole; some rows fall back to subdividing their ramp step."""
    scan = scan_decay_rates("braided", n_points=600, x_max=3.0, omega0=50.0,
                            x_min=0.005)
    _check_against_connected_pole(scan, "braided")
    subdivided = scan.subdivisions_plus + scan.subdivisions_minus
    assert np.count_nonzero(subdivided) >= 1
    for its in (scan.iterations_plus, scan.iterations_minus):
        assert its.shape == (600,) and its.dtype.kind == "i"


def test_short_separate_scan_matches_connected_pole_point_by_point():
    scan = scan_decay_rates("separate", n_points=40, x_min=0.1, x_max=2.9,
                            omega0=20.0, gamma=1.3)
    _check_against_connected_pole(scan, "separate")
    assert scan.residual_plus.max() < 1e-10
    assert scan.residual_minus.max() < 1e-10


@pytest.mark.parametrize("n_legs", [2, 3])
@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("gamma", [0.7, 1.3])
def test_scan_poles_are_connected_poles_bit_for_bit(gamma, topology, n_legs):
    """One formula for the A_n: every point of a batched scan is the very
    pole ``connected_pole`` finds from that point's own config.  The scan
    takes two legs per atom; three legs run its batched ramp on the rows
    of one phase-free table."""
    xs, omega0 = np.linspace(0.1, 2.9, 14), 20.0
    if n_legs == 2:
        scan = scan_decay_rates(topology, n_points=14, x_min=0.1, x_max=2.9,
                                omega0=omega0, gamma=gamma)
        assert np.array_equal(scan.omega0_dx_over_pi, xs)
        poles = {+1: -0.5 * scan.rate_plus, -1: -0.5 * scan.rate_minus}
    else:
        delays = xs * math.pi / omega0
        table = delay_table(SystemConfig(topology=topology, gamma=gamma,
                                         n_legs=n_legs, delay=0.0,
                                         omega0=omega0))
        poles = {p: _ramp(ParityKernel(table.collective(p, omega0 * delays),
                                       delays), delays * gamma, gamma, p)[0]
                 for p in (+1, -1)}
    for i, x in enumerate(xs):
        cfg = SystemConfig(topology=topology, gamma=gamma, n_legs=n_legs,
                           delay=x * math.pi / omega0, omega0=omega0)
        for parity in (+1, -1):
            assert connected_pole(cfg, parity) == poles[parity][i]


def test_scan_input_validation():
    with pytest.raises(ConfigError):
        scan_decay_rates("separate", n_points=10, x_max=1.0, x_min=0.0)
    with pytest.raises(ConfigError):
        scan_decay_rates("separate", n_points=10, x_max=1.0, x_min=2.0)
    with pytest.raises(ConfigError):
        scan_decay_rates("ring", n_points=4)
    with pytest.raises(ConfigError):
        scan_decay_rates("separate", n_points=0)
    # eta = pi*x*gamma/omega0 past the range where exp(-s n delay) is finite
    for omega0 in (1e-300, 1e-310, 0.0, math.nan):
        with pytest.raises(ConfigError, match="omega0"):
            scan_decay_rates("braided", omega0=omega0)
    with pytest.raises(ConfigError, match=r"= 3\.14159e\+300 at x = 1 "):
        scan_decay_rates("braided", n_points=4, x_max=1.0, omega0=1e-300)


def test_nonconvergence_names_a_short_eta(monkeypatch):
    """A branch lost deep in the ramp is reported with eta in %.6g: a nan
    kernel fails every step down to the 24th halving of the first one."""
    monkeypatch.setattr(spectral, "RAMP_MAX_ITER", 1)
    kernel = parity_kernel(SystemConfig.from_phase("braided", eta=0.2,
                                                   phi=math.pi), -1)
    broken = ParityKernel(np.full_like(kernel.coeffs, math.nan), kernel.delay)
    with pytest.raises(NonConvergence, match=r"eta=7\.45058e-10$"):
        _ramp(broken, np.array([0.2]), 1.0, -1)

