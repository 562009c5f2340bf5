"""Scattering amplitudes and decay-pole tracking, cross-checked against an
independent plane-wave matching solver written directly from the jump
conditions (no shared code with the module under test)."""

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from giantqed.analytic import (ParityKernel, exact_solution,
                               laplace_denominator,
                               laplace_denominator_derivative, parity_kernel)
from giantqed import analytic, spectral
from giantqed.model import (TOPOLOGIES, ConfigError, InitialState,
                            SystemConfig, delay_table)
from giantqed.spectral import (RAMP_TOL, NonConvergence, _newton, _ramp,
                               connected_pole, markovian_rates,
                               scan_decay_rates, scattering)


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
    err6 = abs(sol.evaluate(6.0) - residue * cmath.exp(s * 6.0))
    err10 = abs(sol.evaluate(10.0) - residue * cmath.exp(s * 10.0))
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
    assert np.all(scan.rate[0].real > -1e-10)
    assert np.all(scan.rate[1].real > -1e-10)
    assert scan.residual[0].max() < 1e-10
    assert scan.residual[1].max() < 1e-10
    x_pk, v_pk = scan.peak()
    k = int(np.argmax(np.maximum(scan.rate[0].real, scan.rate[1].real)))
    assert x_pk == pytest.approx(xs[k])
    assert v_pk >= scan.rate[0].real.max() - 1e-12


def test_scan_is_smooth_away_from_branch_collisions():
    """Between the integer-x collision points the connected branches are
    smooth; large steps there would mean the tracker hopped families."""
    scan = scan_decay_rates("braided", n_points=41, x_min=1.2, x_max=1.8)
    assert np.max(np.abs(np.diff(scan.rate[0]))) < 1.0
    assert np.max(np.abs(np.diff(scan.rate[1]))) < 1.0


def _check_against_connected_pole(scan, topology):
    """Every scan point's poles against ``connected_pole`` of its own config,
    and its residuals against ``laplace_denominator`` of that config."""
    for i, x in enumerate(scan.omega0_dx_over_pi):
        cfg = SystemConfig(topology=topology, gamma=scan.gamma,
                           delay=x * math.pi / scan.omega0, omega0=scan.omega0)
        for parity, rates, residuals in (
                (+1, scan.rate[0], scan.residual[0]),
                (-1, scan.rate[1], scan.residual[1])):
            assert abs(-2.0 * connected_pole(cfg, parity) - rates[i]) < 1e-12
            s = -0.5 * rates[i]
            assert residuals[i] == \
                abs(laplace_denominator(cfg, parity, s)) / scan.gamma


def test_readme_scan_matches_connected_pole_point_by_point():
    """The batched ramp of the README braided scan gives each point's own
    connected pole; some rows fall back to subdividing their ramp step."""
    scan = scan_decay_rates("braided", n_points=600, x_max=3.0, omega0=50.0,
                            x_min=0.005)
    _check_against_connected_pole(scan, "braided")
    subdivided = scan.subdivisions[0] + scan.subdivisions[1]
    assert np.count_nonzero(subdivided) >= 1
    for its in (scan.iterations[0], scan.iterations[1]):
        assert its.shape == (600,) and its.dtype.kind == "i"


def test_short_separate_scan_matches_connected_pole_point_by_point():
    scan = scan_decay_rates("separate", n_points=40, x_min=0.1, x_max=2.9,
                            omega0=20.0, gamma=1.3)
    _check_against_connected_pole(scan, "separate")
    assert scan.residual[0].max() < 1e-10
    assert scan.residual[1].max() < 1e-10


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
        poles = {+1: -0.5 * scan.rate[0], -1: -0.5 * scan.rate[1]}
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


def test_large_scan_poles_do_not_depend_on_the_batch():
    """12,000 rows of a braided omega0 = 2 scan ramp together, so its
    Newton runs and halving searches evaluate batches far past the 4,096
    rows at which numpy starts reusing temporaries in place; a sample of
    its points still gets, for both parities, the very pole
    ``connected_pole`` finds alone."""
    scan = scan_decay_rates("braided", n_points=6000, x_max=3.0,
                            omega0=2.0, x_min=0.0005)
    for i in range(0, 6000, 60):
        cfg = SystemConfig(topology="braided", omega0=2.0,
                           delay=scan.omega0_dx_over_pi[i] * math.pi / 2.0)
        for row, parity in enumerate((+1, -1)):
            assert connected_pole(cfg, parity) == -0.5 * scan.rate[row, i]


def test_scan_builds_one_delay_table(monkeypatch):
    """Every point's coefficients and residuals come from the scan's one
    phase-free table, not from a table per point."""
    calls = []

    def counted(config):
        calls.append(config)
        return delay_table(config)

    for module in (spectral, analytic):
        monkeypatch.setattr(module, "delay_table", counted)
    scan_decay_rates("braided", n_points=30, x_max=3.0)
    assert len(calls) == 1


def _newton_sequential(kernel, s, tol):
    """Damped Newton with one evaluate per step halving: the oracle of
    ``spectral._newton``'s batched halving search.

    Returns (roots, iterations, converged) and, last, the number of step
    halvings it evaluated and the most rows halving at once.
    """
    s = np.array(s, dtype=complex)
    f, df = kernel.evaluate(s)
    roots = s.copy()
    iterations = np.full(s.size, spectral.RAMP_MAX_ITER)
    converged = np.zeros(s.size, dtype=bool)
    rows = np.arange(s.size)
    halvings = most_pending = 0
    for it in range(spectral.RAMP_MAX_ITER):
        res = np.abs(f)
        stop = (res < tol) | (df == 0)
        if stop.any():
            done = rows[stop]
            roots[done] = s[stop]
            converged[done], iterations[done] = res[stop] < tol, it
            keep = ~stop
            rows, s, f, df, res = rows[keep], s[keep], f[keep], df[keep], res[keep]
            kernel = kernel.rows(keep)
        if not rows.size:
            break
        with np.errstate(invalid="ignore", over="ignore"):
            step = -f / df
        floor = 1e-16 * np.maximum(1.0, np.abs(s))
        s_new = s + step
        f, df = kernel.evaluate(s_new)
        for _ in range(59):
            pending = np.flatnonzero(~((np.abs(f) <= res)
                                       | (np.abs(step) < floor)))
            if not pending.size:
                break
            halvings += pending.size
            most_pending = max(most_pending, pending.size)
            step[pending] *= 0.5
            s_new[pending] = s[pending] + step[pending]
            f[pending], df[pending] = kernel.rows(pending).evaluate(
                s_new[pending])
        s = s_new
    else:
        roots[rows], converged[rows] = s, np.abs(f) < tol
    return roots, iterations, converged, halvings, most_pending


def _ramp_recursive(kernel: analytic.ParityKernel, eta: np.ndarray,
                    gamma: float, parity: int):
    """The recursive ramp, oracle of ``spectral._ramp``'s one loop.

    Continue each row's Markovian pole up to that row's retardation.

    Row i of the row kernel holds one system's A_n; its lags are
    n*eta/gamma at ramp position eta.  Every row starts from s = -sum_n A_n
    and takes 16 equal eta steps up to ``eta[i]``, all rows in one batched
    Newton per step, each re-converging the root of D_p from the previous
    one to |D_p|/gamma < ``RAMP_TOL``.  A step is accepted when Newton
    converges and the root moved at most 0.3*(gamma + |s|); a rejected row
    halves its interval and retries from its last accepted (eta, s), alone,
    down to 24 halvings.  Positions are integers p, the midpoint of p0 and
    p1 is (p0 + p1) // 2 and p's target is eta[i]*(p/end), as in ``_ramp``.
    Rows with eta = 0 keep the Markovian pole.

    Returns:
        (s, iterations, subdivisions) per row: the pole, the Newton
        iterations spent on it, and how many intervals were halved (0 when
        every batched step was accepted).

    Raises:
        NonConvergence: when a row's step still fails after 24 halvings.
    """
    tol = RAMP_TOL * gamma
    s = -np.atleast_2d(kernel.coeffs).sum(axis=-1)
    iterations = np.zeros(s.size, dtype=int)
    subdivisions = np.zeros(s.size, dtype=int)
    end = 16 << 24          # ramp positions count 2**-24 coarse steps

    def step(rows, s0, p1):
        """Newton at position p1 from s0 per row: (root, ok, accepted)."""
        eta1 = eta[rows] * (p1 / end)
        root, its, ok = _newton(kernel.rows(rows, eta1 / gamma), s0, tol)
        iterations[rows] += its
        return root, ok, ok & (np.abs(root - s0) <= 0.3 * (gamma + np.abs(s0)))

    def split(i, p0, s0, p1, root, ok, depth):
        """Row i after a rejected step from position p0 to p1."""
        if depth >= 24:
            if ok:
                return root
            raise NonConvergence(f"lost parity {parity:+d} branch at "
                                 f"eta={eta[i] * (p1 / end):.6g}")
        subdivisions[i] += 1
        mid = (p0 + p1) // 2
        return advance(i, mid, advance(i, p0, s0, mid, depth + 1), p1,
                       depth + 1)

    def advance(i, p0, s0, p1, depth):
        (root,), (ok,), (accepted,) = step([i], np.array([s0]), p1)
        if accepted:
            return root
        return split(i, p0, s0, p1, root, ok, depth)

    rows = np.flatnonzero(eta > 0)
    for k in range(1, 17):                      # 16 coarse ramp steps
        p0, p1 = (k - 1) << 24, k << 24
        s0 = s[rows]
        root, ok, accepted = step(rows, s0, p1)
        s[rows] = root
        for j in np.flatnonzero(~accepted):
            s[rows[j]] = split(rows[j], p0, s0[j], p1, root[j], ok[j], 0)
    del advance             # break the split <-> advance cycle: frees the kernel
    return s, iterations, subdivisions


def _ramp_checked(kernel, eta, gamma, parity, runs):
    """``_ramp`` asserted equal to the recursive oracle; appends its
    subdivisions to ``runs``."""
    out = _ramp(kernel, eta, gamma, parity)
    for got, want in zip(out, _ramp_recursive(kernel, eta, gamma, parity)):
        assert np.array_equal(got, want)
    runs.append(out[2])
    return out


@pytest.mark.parametrize("topology, omega0",
                         [("braided", 50.0), ("braided", 2.0),
                          ("separate", 2.0)])
def test_ramp_loop_matches_recursive_ramp(monkeypatch, topology, omega0):
    """Both parities' ramps of a 600-point scan: the one loop gives every
    row the pole, Newton iterations and subdivisions of the recursive ramp.
    The omega0 = 2 scans halve hundreds of steps, some rows many times."""
    runs = []
    monkeypatch.setattr(spectral, "_ramp",
                        lambda *args: _ramp_checked(*args, runs))
    scan_decay_rates(topology, n_points=600, x_max=3.0, omega0=omega0,
                     x_min=0.005)
    subdivisions = np.concatenate(runs)
    assert len(runs) == 1 and subdivisions.sum() >= 5
    if omega0 == 2.0:
        assert subdivisions.sum() > 700 and subdivisions.max() >= 10


def test_ramp_rows_stay_apart():
    """A healthy row, an eta = 0 row and a nan row in one ramp.  The nan
    row fails every step down to the 24th halving of its first one, and the
    error names that eta, not the target of the healthy row, which halves
    its steps 11 times and is still ramping then.  Without the nan row the
    other two get the recursive ramp's results, the eta = 0 row its
    Markovian pole."""
    healthy = SystemConfig(topology="braided", gamma=1.0,
                           delay=3.0 * math.pi / 2.0, omega0=2.0)
    coeffs = np.tile(parity_kernel(healthy, -1).coeffs, (3, 1))
    coeffs[2] = math.nan
    eta = np.array([healthy.eta, 0.0, 0.2])
    with pytest.raises(NonConvergence, match=r"eta=7\.45058e-10$"):
        _ramp(ParityKernel(coeffs, eta), eta, 1.0, -1)
    # one parity per row: the message names the lost row's
    with pytest.raises(NonConvergence, match=r"parity -1 branch"):
        _ramp(ParityKernel(coeffs, eta), eta, 1.0, np.array([+1, +1, -1]))
    two = ParityKernel(coeffs[:2], eta[:2])
    s, iterations, subdivisions = _ramp(two, eta[:2], 1.0, -1)
    for got, want in zip((s, iterations, subdivisions),
                         _ramp_recursive(two, eta[:2], 1.0, -1)):
        assert np.array_equal(got, want)
    assert s[1] == -coeffs[1].sum() and iterations[1] == 0
    assert subdivisions.tolist() == [11, 0]


def _newton_checked(kernel, s, tol, stats):
    """``_newton`` asserted equal to the oracle; appends the oracle's
    (halvings, most rows halving at once) to ``stats``."""
    *expected, halvings, most_pending = _newton_sequential(kernel, s, tol)
    out = _newton(kernel, s, tol)
    for got, want in zip(out, expected):
        assert np.array_equal(got, want, equal_nan=True)
    stats.append((halvings, most_pending))
    return out


@pytest.mark.parametrize("omega0", [50.0, 2.0])
def test_batched_halving_matches_sequential_newton(monkeypatch, omega0):
    """Every Newton run of the README braided scan (and of the omega0 = 2
    one, which subdivides 806 ramp steps) gives the roots, iterations and
    verdicts of the one-evaluate-per-halving loop.  On the omega0 = 2 scan
    some Newton run halves the steps of two rows at once; on the README
    scan no Newton step is halved in two rows at once."""
    stats = []
    monkeypatch.setattr(spectral, "_newton",
                        lambda kernel, s, tol: _newton_checked(kernel, s, tol,
                                                               stats))
    scan_decay_rates("braided", n_points=600, x_max=3.0, omega0=omega0,
                     x_min=0.005)
    halvings, most_pending = np.max(stats, axis=0)
    assert halvings > 59
    if omega0 == 2.0:
        assert most_pending >= 2


@dataclass(frozen=True)
class _UphillKernel:
    """f = c + 1e20 |s| with f' = -1 per row: from s = 0 every Newton step
    and every halving of it climbs.  Only the halvings of the first step
    1e-3 of the row with c = 1e-3 reach the floor 1e-16, from the 44th on."""

    c: np.ndarray

    def evaluate(self, s):
        return self.c + 1e20 * np.abs(s) + 0j, np.full(s.shape, -1.0 + 0j)

    def rows(self, index):
        return _UphillKernel(self.c[index])


@pytest.mark.parametrize("batch", [spectral._HALVING_BATCH, 1])
def test_batched_halving_edge_rows(monkeypatch, batch):
    """Rows whose 59 halvings all fail take the 59th; a floor-sized halving
    is taken; a row with D_p' = 0 stops at once; one row per evaluate when
    the batch is capped below 59 points."""
    monkeypatch.setattr(spectral, "_HALVING_BATCH", batch)
    uphill, stats = _UphillKernel(np.array([1e3, 1e-3])), []
    roots, iterations, converged = _newton_checked(uphill, np.zeros(2), 1e-12,
                                                   stats)
    # 59 halvings per row and step but the floor row's first 15
    assert stats == [(2 * 59 * spectral.RAMP_MAX_ITER - 15, 2)]
    assert roots[0] != 0 and not converged.any()
    # row 0 has D_p(0) = 1 and D_p'(0) = 1 - delay*A_1 = 0
    flat = ParityKernel(np.array([[0.0, 1.0, 0.0, 0.0], [0.5, 0.2, 0.1, 0.0]]),
                        np.array([1.0, 0.3]))
    roots, iterations, converged = _newton_checked(flat, np.array([0.0, -0.5]),
                                                   1e-12, stats)
    assert iterations[0] == 0 and not converged[0] and converged[1]


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
    # the delay is pi*x/(omega0*v_g): v_g scales eta as omega0 does
    for v_g in (1e-300, 0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ConfigError, match="v_g"):
            scan_decay_rates("braided", v_g=v_g)


def test_nonconvergence_names_a_short_eta(monkeypatch):
    """A branch lost deep in the ramp is reported with eta in %.6g: a nan
    kernel fails every step down to the 24th halving of the first one."""
    monkeypatch.setattr(spectral, "RAMP_MAX_ITER", 1)
    kernel = parity_kernel(SystemConfig.from_phase("braided", eta=0.2,
                                                   phi=math.pi), -1)
    broken = ParityKernel(np.full_like(kernel.coeffs, math.nan), kernel.delay)
    with pytest.raises(NonConvergence, match=r"eta=7\.45058e-10$"):
        _ramp(broken, np.array([0.2]), 1.0, -1)

