"""Acceptance gate: the eleven shipping criteria, one verdict line each.

Every test prints ``[PASS]/[FAIL] criterion N: ...`` on the real stdout
(bypassing capture) and then asserts, so a plain ``pytest -v`` run shows
the full scoreboard.
"""

import math
import time

import numpy as np
import pytest

from giantqed.analytic import (exact_solution, laplace_denominator,
                               markovian_effective_rate)
from giantqed.bic import bic_state, overlap_with_initial
from giantqed.dde import DriveSchedule, integrate, integrate_with_drive
from giantqed.field import (detector_signal, excitation_balance, fdd,
                            frequency_grid, released_energy)
from giantqed.model import InitialState, SystemConfig
from giantqed.spectral import (connected_pole, markovian_rates,
                               scan_decay_rates, scattering)

GAMMA = 1.0


def _verdict(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, detail


def _fit_rate(t, pop):
    mask = pop > 1e-12
    return -np.polyfit(t[mask], np.log(pop[mask]), 1)[0]


@pytest.fixture(scope="module")
def dark_runs():
    """eta = 0.2, phi = 2pi, antisymmetric start, both topologies, to 80/gamma.

    Shared by the asymptotics and trapping criteria (the series
    representation is ill conditioned this late for the braided table, so
    the integrator is the reference here).
    """
    runs = {}
    for topology in ("separate", "braided"):
        cfg = SystemConfig.from_phase(topology, eta=0.2, phi=2 * math.pi)
        runs[topology] = (cfg, integrate(cfg, InitialState.antisymmetric(),
                                         t_max=80.0, steps_per_delay=100))
    return runs


def test_criterion_1_series_matches_integrator(capsys):
    worst = 0.0
    slowest = 0.0
    for topology in ("separate", "braided"):
        for state in (InitialState.symmetric(), InitialState.antisymmetric()):
            cfg = SystemConfig.from_phase(topology, eta=0.15,
                                          phi=0.5 * math.pi)
            tic = time.perf_counter()
            sol = exact_solution(cfg, state, t_max=4 * cfg.delay)
            traj = integrate(cfg, state, t_max=4 * cfg.delay,
                             steps_per_delay=100)
            c_a, c_b = sol.atomic(traj.t)
            diff = np.max(np.abs(np.abs(c_a) ** 2 - traj.pop_a))
            diff = max(diff, np.max(np.abs(np.abs(c_b) ** 2 - traj.pop_b)))
            slowest = max(slowest, time.perf_counter() - tic)
            worst = max(worst, float(diff))
    ok = worst < 1e-6 and slowest < 1.0
    _verdict(capsys, 1, ok,
             f"eta=0.15, 4 topology/parity combos on [0, 4*delay]: "
             f"max |pop_series - pop_dde| = {worst:.3e} (< 1e-6), "
             f"slowest combo {slowest:.2f}s (< 1s)")


def test_criterion_2_small_delay_collective_rate(capsys):
    cfg = SystemConfig.from_phase("separate", eta=1e-6, phi=0.0)
    traj = integrate(cfg, InitialState.symmetric(), t_max=0.1,
                     steps_per_delay=1)
    rate = _fit_rate(traj.t[1:], traj.excited_population[1:])
    ok = abs(rate - 8 * GAMMA) < 0.001 * 8 * GAMMA
    _verdict(capsys, 2, ok,
             f"eta=1e-6 symmetric fitted rate = {rate:.6f} "
             f"(8*gamma +/- 0.1%)")


def test_criterion_3_large_delay_independent_emission(capsys):
    rates = []
    for topology in ("separate", "braided"):
        cfg = SystemConfig.from_phase(topology, eta=20.0, phi=0.0)
        traj = integrate(cfg, InitialState.symmetric(), t_max=2.0,
                         steps_per_delay=1000)
        rates.append(_fit_rate(traj.t[1:], traj.excited_population[1:]))
    ok = all(abs(r - 2 * GAMMA) < 0.02 * 2 * GAMMA for r in rates)
    _verdict(capsys, 3, ok,
             f"eta=20 early-window rates = {rates[0]:.4f}, {rates[1]:.4f} "
             f"(2*gamma +/- 2%, no echo before the first round trip)")


def test_criterion_4_dark_state_asymptotics(capsys, dark_runs):
    expected = {"separate": 0.390625, "braided": 25.0 / 36.0}
    details = []
    ok = True
    for topology, (cfg, traj) in dark_runs.items():
        pop = float(traj.excited_population[-1])
        bound = bic_state(cfg)
        survive = (overlap_with_initial(bound, InitialState.antisymmetric())
                   * bound.atomic_weight)
        good = (abs(pop - expected[topology]) < 1e-3
                and abs(pop - survive) < 1e-3)
        ok = ok and good
        details.append(f"{topology}: pop(80/gamma) = {pop:.6f} "
                       f"(target {expected[topology]:.6f}, "
                       f"bound-state {survive:.6f})")
    _verdict(capsys, 4, ok, "; ".join(details))


def test_criterion_5_markovian_continuity_of_poles(capsys):
    worst_rel = 0.0
    worst_res = 0.0
    ok = True
    for topology in ("separate", "braided"):
        cfg = SystemConfig(topology=topology, gamma=GAMMA,
                           delay=1e-4 * math.pi / 50.0, omega0=50.0, v_g=1.0)
        for parity, ref in zip((+1, -1), markovian_rates(cfg)):
            s = connected_pole(cfg, parity)
            worst_rel = max(worst_rel, abs(-2.0 * s - ref) / abs(ref))
            worst_res = max(worst_res, abs(laplace_denominator(cfg, parity, s))
                            / cfg.gamma)
    ok = ok and worst_rel < 0.01 and worst_res < 1e-10
    _verdict(capsys, 5, ok,
             f"omega0*dx = 1e-4*pi: pole vs closed-form rate, worst "
             f"rel = {worst_rel:.2e} (< 1%), worst residual = "
             f"{worst_res:.1e} (< 1e-10)")


def test_criterion_6_scanned_peak_rates(capsys):
    targets = {"separate": 9.51, "braided": 17.26}
    details = []
    ok = True
    for topology, target in targets.items():
        tic = time.perf_counter()
        scan = scan_decay_rates(topology, n_points=600, x_max=3.0,
                                omega0=50.0, gamma=GAMMA)
        elapsed = time.perf_counter() - tic
        x_peak, peak = scan.peak()
        good = abs(peak - target) / target < 0.05 and elapsed < 300.0
        ok = ok and good
        details.append(f"{topology}: max Re rate = {peak:.3f} at "
                       f"x = {x_peak:.3f} (target {target} +/- 5%), "
                       f"600 points in {elapsed:.1f}s")
    _verdict(capsys, 6, ok, "; ".join(details))


def test_criterion_7_scattering_unitarity(capsys):
    rng = np.random.default_rng(20240819)
    worst = 0.0
    for topology in ("separate", "braided"):
        cfg = SystemConfig.from_phase(topology, eta=0.3, phi=1.3)
        deltas = rng.uniform(-30.0, 30.0, 1000)
        t_amp, r_amp = scattering(cfg, deltas)
        worst = max(worst, float(np.max(
            np.abs(np.abs(t_amp) ** 2 + np.abs(r_amp) ** 2 - 1.0))))
    ok = worst < 1e-10
    _verdict(capsys, 7, ok,
             f"1000 random detunings per topology: max "
             f"| |t|^2 + |r|^2 - 1 | = {worst:.2e} (< 1e-10)")


def test_criterion_8_excitation_conservation(capsys):
    worst = 0.0
    for topology, phi in (("separate", 0.9 * math.pi),
                          ("braided", 0.7 * math.pi)):
        cfg = SystemConfig.from_phase(topology, eta=0.2, phi=phi)
        traj = integrate(cfg, InitialState.symmetric(), t_max=5.2,
                         steps_per_delay=160)
        # window tail error falls like 1/half_width; the grid must also
        # resolve the 2*pi/t interference fringes of |phi(omega)|^2
        grid = frequency_grid(cfg, half_width=6000.0, n_points=80001)
        for t_snap in (1.0, 2.0, 3.0, 4.0, 5.0):
            worst = max(worst,
                        abs(excitation_balance(traj, grid, t_snap) - 1.0))
    ok = worst < 1e-3
    _verdict(capsys, 8, ok,
             f"atomic + integrated photon excitation at 5 times x 2 runs "
             f"(eta=0.2): worst deviation from 1 = {worst:.2e} (< 1e-3)")


def test_criterion_9_field_trapping_and_causality(capsys, dark_runs):
    details = []
    ok = True
    for topology, (cfg, traj) in dark_runs.items():
        edge = 1.5 * cfg.spacing
        t_late = np.array([60.0])
        x_in = np.linspace(-edge, edge, 801)
        x_out = np.linspace(edge + 1.0, edge + 21.0, 801)
        interior = fdd(traj, cfg, -1, x_in, t_late).intensity.max()
        exterior = fdd(traj, cfg, -1, x_out, t_late).intensity.max()
        ratio = exterior / interior
        # outside the light cone at an early instant
        t_early = np.array([0.8 * cfg.delay])
        x_far = np.linspace(edge + cfg.v_g * cfg.delay, edge + 50.0, 501)
        cone = fdd(traj, cfg, -1, x_far, t_early).intensity.max()
        good = ratio < 1e-4 and cone <= 1e-12
        ok = ok and good
        details.append(f"{topology}: exterior/interior = {ratio:.1e}, "
                       f"outside-cone max = {cone:.1e}")
    _verdict(capsys, 9, ok, "; ".join(details)
             + " (< 1e-4 and <= 1e-12)")


def test_criterion_10_drive_switch_re_release(capsys):
    cfg = SystemConfig.from_phase("separate", eta=0.2, phi=2 * math.pi)
    t_s, t_end = 20.0, 85.0
    schedule = DriveSchedule.switch_at(t_s, cfg.omega0,
                                       2.5 * math.pi / cfg.delay)
    traj = integrate_with_drive(cfg, InitialState.antisymmetric(), t_end,
                                schedule, steps_per_delay=100)
    x0 = 2.0
    t_bar = np.linspace(0.0, t_end - x0 / cfg.v_g - 1.0, 8001)
    record = detector_signal(traj, cfg, x0, t_bar)

    def trapped(t_at):
        edge = 1.5 * cfg.spacing
        x_in = np.linspace(-edge, edge, 1501)
        grid = fdd(traj, cfg, -1, x_in, np.array([t_at]))
        interior = cfg.v_g / (2 * math.pi) * grid.spatial_integral()[0]
        atomic = float(traj.excited_population[traj.nearest_index(t_at)])
        return atomic + interior

    drop = trapped(t_s) - trapped(float(t_bar[-1]))
    released = 2.0 * released_energy(record, (t_s, float(t_bar[-1])))
    pre = record.intensity[(t_bar >= 10.0) & (t_bar <= t_s)]
    flux_ok = abs(released - drop) < 0.05 * drop
    quiet_ok = float(pre.max()) < 1e-6
    ok = flux_ok and quiet_ok
    _verdict(capsys, 10, ok,
             f"2 x post-switch detector flux = {released:.6f} vs trapped "
             f"drop = {drop:.6f} (within 5%); pre-switch intensity "
             f"{float(pre.max()):.1e} (< 1e-6)")


def test_criterion_11_branch_coefficient_audit(capsys):
    hand = {
        ("separate", +1): [[1.0], [0.0, -1.5], [0.0, -1.0, 1.125],
                           [0.0, -0.5, 1.5, -0.5625]],
        ("separate", -1): [[1.0], [0.0, -0.5], [0.0, 1.0, 0.125],
                           [0.0, 0.5, -0.5, -1.0 / 48.0]],
        ("braided", +1): [[1.0], [0.0, -1.5], [0.0, -1.0, 1.125],
                          [0.0, -0.5, 1.5, -0.5625]],
        ("braided", -1): [[1.0], [0.0, 1.5], [0.0, -1.0, 1.125],
                          [0.0, 0.5, -1.5, 0.5625]],
    }
    worst = 0.0
    for (topology, parity), polys in hand.items():
        cfg = SystemConfig.from_phase(topology, eta=0.25, phi=0.0)
        state = (InitialState.symmetric() if parity > 0
                 else InitialState.antisymmetric())
        sol = exact_solution(cfg, state, t_max=3 * cfg.delay)
        for branch, expected in zip(sol.branches, polys):
            pad = np.zeros(len(expected), dtype=complex)
            pad[:len(branch)] = branch
            worst = max(worst, float(np.max(np.abs(pad - np.array(expected)))))
    named = [abs(hand[("separate", +1)][1][1]) == 1.5,
             abs(hand[("separate", +1)][2][2]) == 1.125,
             abs(hand[("separate", +1)][3][3]) == 0.5625]
    ok = worst < 1e-14 and all(named)
    _verdict(capsys, 11, ok,
             f"branch polynomials l <= 3, all four tables vs hand "
             f"integration: max coefficient deviation = {worst:.1e} "
             f"(machine precision; named magnitudes 3/2, 9/8, 9/16 present)")
