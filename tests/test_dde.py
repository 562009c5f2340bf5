"""Delay integrator: convergence, invariants, spectra and the CSV dump."""

import cmath
import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from giantqed import dde
from giantqed.analytic import exact_solution
from giantqed.dde import (GRID_END_SLACK, AmplitudeTrajectory, DriveSchedule,
                          _filon_terms, excitation_balance, field_amplitudes,
                          frequency_grid, integrate, integrate_with_drive,
                          to_csv)
from giantqed.model import (ConfigError, InitialState, SystemConfig,
                            delay_table)


def _implicit_euler_population(config, parity, t_end, steps_per_delay):
    """First-order implicit Euler for the collective scalar delay equation.

    Deliberately a different scheme from the package integrator (implicit
    first order vs explicit fourth order) so the two can cross-check each
    other.  Returns |c|^2 at t_end with c(0) = 1.
    """
    a0, *coeffs = delay_table(config).collective(parity, config.phi).tolist()
    K = steps_per_delay
    h = config.delay / K
    n = round(t_end / h)
    c = [0j] * (n + 1)
    c[0] = 1.0 + 0j
    for k in range(n):
        rhs = c[k]
        for lag, a_n in enumerate(coeffs, start=1):
            j = k + 1 - lag * K
            if j >= 0:
                rhs -= h * a_n * c[j]
        c[k + 1] = rhs / (1.0 + h * a0)
    return abs(c[n]) ** 2


# Richardson-extrapolated implicit Euler (K = 32000 and 64000), frozen:
# separate, eta = 0.15, phi = 2*pi, symmetric, |c(2.5*delay)|^2.
EULER_FROZEN_POP = 0.12537276691883054


def test_against_frozen_implicit_euler_value():
    cfg = SystemConfig.from_phase("separate", eta=0.15, phi=2 * math.pi)
    traj = integrate(cfg, InitialState.symmetric(), t_max=2.5 * cfg.delay,
                     steps_per_delay=100)
    k = traj.nearest_index(2.5 * cfg.delay)
    assert traj.t[k] == pytest.approx(2.5 * cfg.delay, abs=1e-12)
    pop = 2.0 * abs(traj.c_a[k]) ** 2          # collective normalisation
    assert pop == pytest.approx(EULER_FROZEN_POP, abs=1e-9)


def test_live_implicit_euler_cross_check():
    """Re-derive the frozen number (coarsely) inside the test run."""
    cfg = SystemConfig.from_phase("separate", eta=0.15, phi=2 * math.pi)
    coarse = _implicit_euler_population(cfg, +1, 2.5 * cfg.delay, 4000)
    fine = _implicit_euler_population(cfg, +1, 2.5 * cfg.delay, 8000)
    richardson = 2.0 * fine - coarse
    assert richardson == pytest.approx(EULER_FROZEN_POP, abs=1e-7)


def test_matches_exact_series_and_converges():
    cfg = SystemConfig.from_phase("braided", eta=0.2, phi=1.3 * math.pi)
    state = InitialState.symmetric()
    sol = exact_solution(cfg, state, t_max=4 * cfg.delay)
    t_probe = 3.5 * cfg.delay
    ref_a, _ = sol.atomic(t_probe)

    errs = {}
    for K in (25, 50, 100):
        traj = integrate(cfg, state, t_max=t_probe, steps_per_delay=K)
        k = traj.nearest_index(t_probe)
        errs[K] = abs(traj.c_a[k] - ref_a)
    assert errs[100] < 1e-8
    # at least third-order gain per halving (the scheme aims for fourth)
    assert errs[50] < errs[25] / 6.0
    assert errs[100] < errs[50] / 6.0


@settings(max_examples=12, deadline=None)
@given(topology=st.sampled_from(["separate", "braided"]),
       phi_over_pi=st.floats(0.0, 4.0),
       eta=st.floats(0.05, 1.0),
       sym=st.booleans())
def test_parity_is_preserved(topology, phi_over_pi, eta, sym):
    """The two-atom equations are exchange symmetric, so parity eigenstates
    stay parity eigenstates for every parameter choice: one channel is
    integrated, and c_b is parity * c_a bit for bit."""
    cfg = SystemConfig.from_phase(topology, eta=eta, phi=phi_over_pi * math.pi)
    state = InitialState.symmetric() if sym else InitialState.antisymmetric()
    traj = integrate(cfg, state, t_max=2.0 * cfg.delay, steps_per_delay=60)
    sign = 1 if sym else -1
    assert traj.channels == (sign,)
    for rows in (traj.c, traj.d_right, traj.d_left):
        assert np.array_equal(rows[1], sign * rows[0])


def test_early_window_is_single_atom_decay():
    """Before the first retardation echo each amplitude decays at the bare
    collective rate A_0 = gamma, whatever the topology or phase."""
    for topology in ("separate", "braided"):
        cfg = SystemConfig.from_phase(topology, eta=0.4, phi=0.77 * math.pi)
        traj = integrate(cfg, InitialState.symmetric(), t_max=0.9 * cfg.delay,
                         steps_per_delay=80)
        expect = np.exp(-cfg.gamma * traj.t) / math.sqrt(2.0)
        assert np.max(np.abs(np.abs(traj.c_a) - expect)) < 1e-10


def _accumulated(schedule, t):
    """Phase integral Int_0^t omega0(s) ds, one segment at a time.

    The oracles' own scalar accumulator, independent of
    ``DriveSchedule.window_phase``; t < 0 extends segment 0.
    """
    i = bisect_right(schedule.starts, t) - 1
    if i < 0:
        return schedule.omegas[0] * t
    acc = 0.0
    for k in range(i):
        acc += schedule.omegas[k] * (schedule.starts[k + 1] - schedule.starts[k])
    return acc + schedule.omegas[i] * (t - schedule.starts[i])


def _rk4_oracle(config, state, t_max, schedule, steps_per_delay):
    """One classical RK4 step at a time, in plain Python.

    The method of steps without the per-interval scan: the same grid, the
    same Hermite midpoints and the same breakpoint derivatives, stepped
    node by node.  Returns (c, d_right, d_left), each of shape (2, nodes).
    """
    table = delay_table(config)
    gamma0 = float(table.self_terms[0])
    lags = list(range(1, table.max_step + 1))
    s_self = table.self_terms[1:].tolist()
    s_cross = table.cross_terms[1:].tolist()
    K = steps_per_delay
    h = config.delay / K
    n_steps = max(1, int(math.ceil(t_max / h - 1e-9)))

    def phases(t):
        return [cmath.exp(1j * (_accumulated(schedule, t)
                                - _accumulated(schedule, t - n * config.delay)))
                for n in lags]

    ca, cb, dra, drb, dla, dlb = (np.empty(n_steps + 1, dtype=complex)
                                  for _ in range(6))
    ca[0], cb[0] = complex(state.c_a), complex(state.c_b)
    dra[0] = dla[0] = -gamma0 * ca[0]
    drb[0] = dlb[0] = -gamma0 * cb[0]
    active = []

    def deriv(ya, yb, delayed):
        fa, fb = -gamma0 * ya, -gamma0 * yb
        for i, va, vb, ph in delayed:
            fa -= ph * (s_self[i] * va + s_cross[i] * vb)
            fb -= ph * (s_cross[i] * va + s_self[i] * vb)
        return fa, fb

    def node_terms(j, ph):
        return [(i, ca[j - lags[i] * K], cb[j - lags[i] * K], ph[i])
                for i in active]

    for j in range(n_steps):
        ph_m = phases(j * h + 0.5 * h)
        ph_e = phases(j * h + h)
        mids = []
        for i in active:
            b = j - lags[i] * K
            mids.append((i,
                         0.5 * (ca[b] + ca[b + 1]) + 0.125 * h * (dra[b] - dla[b + 1]),
                         0.5 * (cb[b] + cb[b + 1]) + 0.125 * h * (drb[b] - dlb[b + 1]),
                         ph_m[i]))
        k1a, k1b = dra[j], drb[j]
        k2a, k2b = deriv(ca[j] + 0.5 * h * k1a, cb[j] + 0.5 * h * k1b, mids)
        k3a, k3b = deriv(ca[j] + 0.5 * h * k2a, cb[j] + 0.5 * h * k2b, mids)
        k4a, k4b = deriv(ca[j] + h * k3a, cb[j] + h * k3b, node_terms(j + 1, ph_e))
        ca[j + 1] = ca[j] + (h / 6.0) * (k1a + 2.0 * (k2a + k3a) + k4a)
        cb[j + 1] = cb[j] + (h / 6.0) * (k1b + 2.0 * (k2b + k3b) + k4b)
        dla[j + 1], dlb[j + 1] = deriv(ca[j + 1], cb[j + 1], node_terms(j + 1, ph_e))
        if (j + 1) % K == 0 and (j + 1) // K in lags:
            active.append(lags.index((j + 1) // K))
        dra[j + 1], drb[j + 1] = deriv(ca[j + 1], cb[j + 1], node_terms(j + 1, ph_e))
    return (np.array([ca, cb]), np.array([dra, drb]), np.array([dla, dlb]))


def _oracle_case(name):
    sep = SystemConfig.from_phase("separate", eta=0.2, phi=2 * math.pi)
    brd = SystemConfig.from_phase("braided", eta=0.3, phi=0.7 * math.pi)
    anti, sym = InitialState.antisymmetric(), InitialState.symmetric()
    mixed = InitialState(0.8, 0.3 - 0.4j)
    near = InitialState(0.6, 0.6 + 1e-13)
    legs3 = SystemConfig.from_phase("braided", eta=0.25, phi=0.3, n_legs=3)
    const = DriveSchedule.constant
    return {
        # t_max 3.7 delays: a partial last interval
        "separate": (sep, anti, 3.7 * sep.delay, const(sep.omega0), 40),
        # t_max exactly 3 delays: the last node is the breakpoint where
        # the longest lag switches on
        "braided-breakpoint": (brd, mixed, 3 * brd.delay, const(brd.omega0), 30),
        # symmetric to 1e-13 only: two channels, the antisymmetric one tiny
        "near-parity": (brd, near, 3.5 * brd.delay, const(brd.omega0), 30),
        # the switch at t = 0.4567 falls inside step 114 (h = 0.004)
        "switch-mid-step": (sep, mixed, 5.1 * sep.delay,
                            DriveSchedule.switch_at(0.4567, sep.omega0,
                                                    1.3 * sep.omega0), 50),
        "K=1": (SystemConfig.from_phase("braided", eta=0.02, phi=0.4 * math.pi),
                sym, 37.5 * 0.02, const(0.4 * math.pi / 0.02), 1),
        "K=3": (SystemConfig.from_phase("separate", eta=0.05, phi=1.1 * math.pi),
                mixed, 11.2 * 0.05, const(1.1 * math.pi / 0.05), 3),
        "n_legs=3": (legs3, mixed, 6.5 * 0.25, const(legs3.omega0), 25),
        # the switch sits on the breakpoint node 80: the passes before it
        # take the segment phases, the three whose windows hold it do not
        "switch-on-breakpoint": (sep, mixed, 5.3 * sep.delay,
                                 DriveSchedule.switch_at(2 * sep.delay,
                                                         sep.omega0,
                                                         1.3 * sep.omega0), 40),
        # a middle segment shorter than one delay: no window lies inside it
        "short-middle-segment": (
            legs3, mixed, 9.5 * legs3.delay,
            DriveSchedule((0.0, 3.05 * legs3.delay, 3.7 * legs3.delay),
                          tuple(f * legs3.omega0 for f in (1.0, 0.6, 1.4))),
            20),
    }[name]


@pytest.mark.parametrize("name", ["separate", "braided-breakpoint",
                                  "near-parity", "switch-mid-step", "K=1",
                                  "K=3", "n_legs=3", "switch-on-breakpoint",
                                  "short-middle-segment"])
def test_interval_scan_matches_step_by_step_oracle(name):
    cfg, state, t_max, sched, K = _oracle_case(name)
    traj = integrate_with_drive(cfg, state, t_max, sched, steps_per_delay=K)
    c, d_right, d_left = _rk4_oracle(cfg, state, t_max, sched, K)
    assert traj.t.size == c.shape[1]
    tol = 1e-12 * np.max(np.abs(c))
    for got, want in ((traj.c, c), (traj.d_right, d_right),
                      (traj.d_left, d_left)):
        assert np.max(np.abs(got - want)) <= tol


@pytest.mark.parametrize("name, channels", [
    ("separate", (-1,)), ("K=1", (1,)), ("braided-breakpoint", (1, -1)),
    ("near-parity", (1, -1))])
def test_runs_integrate_the_channels_that_start_nonzero(name, channels):
    """A channel (c_a + p*c_b)/2 is integrated when it starts nonzero at
    all: the antisymmetric, symmetric, mixed and 1e-13-off symmetric
    states; the zero state has none.  The delay-0 closed form records its
    channels too."""
    cfg, state, t_max, sched, K = _oracle_case(name)
    traj = integrate_with_drive(cfg, state, t_max, sched, steps_per_delay=K)
    assert traj.channels == channels
    dicke = SystemConfig(topology="braided", delay=0.0, omega0=3.0)
    assert integrate(dicke, state, t_max=1.0).channels == channels
    zero = integrate_with_drive(cfg, InitialState(0.0, 0.0), t_max, sched,
                                steps_per_delay=K)
    assert zero.channels == () and not np.any(zero.c)


def test_last_breakpoint_node_has_its_right_derivative():
    """A run ending on a breakpoint stores the derivative with the lag that
    switches on there, not a copy of the left one."""
    cfg, state, t_max, sched, K = _oracle_case("braided-breakpoint")
    traj = integrate_with_drive(cfg, state, t_max, sched, steps_per_delay=K)
    assert abs(traj.d_right[0, -1] - traj.d_left[0, -1]) > 1e-3


def test_run_inside_the_first_delay_takes_any_steps_per_delay():
    """eta = 1e300 puts the step floor at K >= 5e301, past int64; a run of
    t_max = 1 ends long before the first delay, so it is one pass of 50
    steps: the Markovian decay exp(-2t) of the symmetric population."""
    cfg = SystemConfig.from_phase("separate", eta=1e300, phi=0.0)
    traj = integrate(cfg, InitialState.symmetric(), t_max=1.0,
                     steps_per_delay=5 * 10 ** 301)
    assert traj.t.size == 51 and traj.intervals == 1
    assert np.max(np.abs(traj.excited_population - np.exp(-2.0 * traj.t))) < 1e-8


def test_stiff_run_matches_exact_series():
    """eta = 20 at K = 1000: one closed-form block per interval, with
    inverse powers up to R^-K = e^20."""
    cfg = SystemConfig.from_phase("braided", eta=20.0, phi=0.3 * math.pi)
    state = InitialState.symmetric()
    traj = integrate(cfg, state, t_max=5 * cfg.delay, steps_per_delay=1000)
    sol = exact_solution(cfg, state, t_max=5 * cfg.delay * (1 + 1e-9))
    c_a, c_b = sol.atomic(traj.t)
    assert max(np.max(np.abs(c_a - traj.c_a)),
               np.max(np.abs(c_b - traj.c_b))) < 1e-8


def test_blocked_closed_form_matches_exact_series():
    """gamma0*delay = 250: R^-K would pass e^200, so each interval of
    12 500 steps is solved in blocks; no overflow warning, and the run
    matches the exact series over three delays."""
    cfg = SystemConfig.from_phase("separate", eta=250.0, phi=0.3 * math.pi)
    assert delay_table(cfg).self_terms[0] * cfg.delay > 200.0
    state = InitialState.symmetric()
    traj = integrate(cfg, state, t_max=3 * cfg.delay, steps_per_delay=12500)
    assert np.all(np.isfinite(traj.c_a)) and np.all(np.isfinite(traj.c_b))
    sol = exact_solution(cfg, state, t_max=3 * cfg.delay * (1 + 1e-9))
    c_a, c_b = sol.atomic(traj.t)
    assert max(np.max(np.abs(c_a - traj.c_a)),
               np.max(np.abs(c_b - traj.c_b))) < 1e-8


@pytest.mark.parametrize("eta", [0.2, 20.0, 800.0])
def test_closed_form_recurrence_matches_plain_loop(eta):
    """The blocked closed form of y[j+1] = R*y[j] + F[j] against the
    recurrence stepped in Python, with R at the step of the eta = gamma0*
    delay run at K = max(100, 50*eta): one block for eta = 0.2 and 20,
    four of 10 000 steps for eta = 800."""
    K = max(100, math.ceil(50 * eta))
    z = -eta / K
    amp = 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))
    rng = np.random.default_rng(21)
    f = rng.normal(size=(2, K)) + 1j * rng.normal(size=(2, K))
    y = np.zeros((2, K + 1), dtype=complex)
    y[:, 0] = rng.normal(size=2) + 1j * rng.normal(size=2)
    want = y.copy()
    for j in range(K):
        want[:, j + 1] = amp * want[:, j] + f[:, j]
    dde._affine_recurrence(amp, K)(y, f)
    assert np.max(np.abs(y - want)) <= 1e-13 * np.max(np.abs(want))


def test_drive_single_segment_is_bit_identical():
    cfg = SystemConfig.from_phase("separate", eta=0.3, phi=0.9 * math.pi)
    state = InitialState.antisymmetric()
    plain = integrate(cfg, state, t_max=1.5, steps_per_delay=60)
    driven = integrate_with_drive(cfg, state, t_max=1.5,
                                  schedule=DriveSchedule.constant(cfg.omega0),
                                  steps_per_delay=60)
    assert np.array_equal(plain.c_a, driven.c_a)
    assert np.array_equal(plain.c_b, driven.c_b)


def test_drive_switch_changes_late_dynamics_only():
    cfg = SystemConfig.from_phase("separate", eta=0.2, phi=2 * math.pi)
    state = InitialState.antisymmetric()
    t_s = 3.0
    sched = DriveSchedule.switch_at(t_s, cfg.omega0, cfg.omega0 * 1.25)
    base = integrate(cfg, state, t_max=6.0, steps_per_delay=50)
    kicked = integrate_with_drive(cfg, state, t_max=6.0, schedule=sched,
                                  steps_per_delay=50)
    before = base.t <= t_s + 1e-12
    # same dynamics before the switch, bit for bit: until a retardation
    # window holds the switch, both runs take the segment phases of omega0
    assert np.array_equal(base.c_a[before], kicked.c_a[before])
    # the dark state is phase-matched to the old drive, so the kick releases it
    k_end = len(base.t) - 1
    assert kicked.pop_a[k_end] < base.pop_a[k_end] - 1e-3


def test_only_passes_whose_windows_hold_a_switch_take_node_phases():
    """Health figures of a run: every pass of a static run takes the
    segment phases; the criterion-10 run (switch at t = 20 on a breakpoint,
    lags up to 3) takes per-node phases in exactly three passes."""
    for name in ("separate", "braided-breakpoint", "K=1", "K=3", "n_legs=3"):
        cfg, state, t_max, sched, K = _oracle_case(name)
        traj = integrate_with_drive(cfg, state, t_max, sched, steps_per_delay=K)
        assert traj.switch_intervals == 0
        assert traj.intervals == (traj.t.size - 1) // K + 1
    cfg = SystemConfig.from_phase("separate", eta=0.2, phi=2 * math.pi)
    sched = DriveSchedule.switch_at(20.0, cfg.omega0, 2.5 * math.pi / cfg.delay)
    traj = integrate_with_drive(cfg, InitialState.antisymmetric(), 85.0,
                                sched, steps_per_delay=100)
    assert (traj.intervals, traj.switch_intervals) == (426, 3)
    static = integrate(cfg, InitialState.antisymmetric(), 85.0, 100)
    assert (static.intervals, static.switch_intervals) == (426, 0)
    dicke = integrate(SystemConfig(topology="braided", delay=0.0, omega0=3.0),
                      InitialState.symmetric(), t_max=1.0)
    assert (dicke.intervals, dicke.switch_intervals) == (0, 0)


def test_node_budget_is_checked_before_allocation():
    """Runs past the node budget raise ConfigError naming the flags before
    any array is allocated; t_max / h overflowing to inf is caught too."""
    cfg = SystemConfig.from_phase("separate", eta=0.2, phi=0.0)
    state = InitialState.symmetric()
    # 1e5 delays at K = 100: 1e7 + 1 nodes, one over the budget
    with pytest.raises(ConfigError, match="--t-max.*--steps-per-delay"):
        integrate(cfg, state, t_max=1e5 * cfg.delay, steps_per_delay=100)
    with pytest.raises(ConfigError, match="grid nodes"):
        integrate(cfg, state, t_max=1e300, steps_per_delay=10 ** 9)
    with pytest.raises(ConfigError, match="grid nodes"):
        integrate(SystemConfig(topology="braided", delay=0.0, omega0=3.0),
                  state, t_max=1e300)


def test_schedule_validation():
    with pytest.raises(ValueError):
        DriveSchedule((1.0,), (0.5,))          # must start at 0
    with pytest.raises(ValueError):
        DriveSchedule((0.0, 0.0), (1.0, 2.0))  # strictly increasing
    with pytest.raises(ValueError):
        DriveSchedule((0.0,), ())
    with pytest.raises(ValueError, match="finite"):
        DriveSchedule((0.0, math.nan), (1.0, 2.0))
    with pytest.raises(ValueError, match="finite"):
        DriveSchedule((0.0,), (math.inf,))
    sched = DriveSchedule.switch_at(2.0, 10.0, 12.0)
    # accumulated phase is continuous across the switch
    eps = 1e-9
    assert _accumulated(sched, 2.0 + eps) - _accumulated(sched, 2.0 - eps) == \
        pytest.approx(0.0, abs=1e-6)
    # and grows at each segment's own frequency on either side of it
    before, at, after = (_accumulated(sched, tv) for tv in (1.9, 2.0, 2.1))
    assert (at - before, after - at) == (pytest.approx(1.0), pytest.approx(1.2))


def test_step_floor_validation():
    cfg = SystemConfig.from_phase("separate", eta=0.2, phi=0.0)
    with pytest.raises(ConfigError):
        integrate(cfg, InitialState.symmetric(), t_max=1.0, steps_per_delay=0)
    with pytest.raises(ConfigError):
        integrate(cfg, InitialState.symmetric(), t_max=-1.0)
    with pytest.raises(ConfigError):
        integrate(cfg, InitialState.symmetric(), t_max=math.inf)
    big = SystemConfig.from_phase("separate", eta=20.0, phi=0.0)
    with pytest.raises(ConfigError):
        integrate(big, InitialState.symmetric(), t_max=1.0,
                  steps_per_delay=100)
    # a tiny delay is allowed to use a single step per delay
    dicke = SystemConfig.from_phase("separate", eta=1e-6, phi=0.0)
    traj = integrate(dicke, InitialState.symmetric(), t_max=20 * dicke.delay,
                     steps_per_delay=1)
    assert len(traj.t) == 21


def test_zero_delay_closed_form():
    """delay = 0 collapses to coupled exponentials: the symmetric channel
    decays at the full constructive rate, the antisymmetric one is dark."""
    cfg = SystemConfig(topology="braided", delay=0.0, omega0=3.0)
    sym = integrate(cfg, InitialState.symmetric(), t_max=1.0)
    assert np.allclose(sym.excited_population, np.exp(-8.0 * sym.t),
                       rtol=0.0, atol=1e-12)
    dark = integrate(cfg, InitialState.antisymmetric(), t_max=1.0)
    assert np.allclose(dark.excited_population, 1.0, rtol=0.0, atol=1e-12)


def test_interpolate_nodes_and_midpoints():
    cfg = SystemConfig.from_phase("separate", eta=0.25, phi=0.6 * math.pi)
    state = InitialState.symmetric()
    traj = integrate(cfg, state, t_max=3.0 * cfg.delay, steps_per_delay=40)
    sol = exact_solution(cfg, state, t_max=3 * cfg.delay)
    k = len(traj.t) // 2
    c_a, c_b = traj.atomic(traj.t[k])
    assert c_a == traj.c_a[k] and c_b == traj.c_b[k]
    t_mid = 0.5 * (traj.t[k] + traj.t[k + 1])
    ref_a, _ = sol.atomic(t_mid)
    c_a_mid, _ = traj.atomic(t_mid)
    assert abs(c_a_mid - ref_a) < 1e-8
    arr_a, arr_b = traj.atomic(np.array([0.0, t_mid]))
    assert arr_a.shape == (2,) and arr_b.shape == (2,)
    assert arr_a[0] == traj.c_a[0]
    with pytest.raises(ConfigError):
        traj.atomic(traj.t[-1] + 1.0)
    with pytest.raises(ConfigError):
        traj.atomic(-0.5)


def test_interpolate_clamps_inside_the_grid_end_slack():
    """At eta = 1.3, K = 150 the run ends an ulp short of t_max = 81.9;
    queries up to GRID_END_SLACK of a step past the last node answer with
    its value, and one just beyond that is refused."""
    cfg = SystemConfig.from_phase("separate", eta=1.3, phi=0.0)
    traj = integrate(cfg, InitialState.antisymmetric(), 81.9, 150)
    assert traj.t[-1] < 81.9
    h = traj.t[1] - traj.t[0]
    assert traj.horizon == traj.t[-1] + GRID_END_SLACK * h
    last = (traj.c_a[-1], traj.c_b[-1])
    assert traj.atomic(81.9) == last
    assert traj.atomic(traj.horizon) == last
    assert traj.atomic(-GRID_END_SLACK * h) == (traj.c_a[0], traj.c_b[0])
    with pytest.raises(ConfigError):
        traj.atomic(traj.t[-1] + 2 * GRID_END_SLACK * h)


def test_interpolate_equals_plain_hermite_expression():
    """The in-place Hermite sum gives the very values of the textbook
    expression, so field maps built on it are unchanged bit for bit."""
    cfg = SystemConfig.from_phase("braided", eta=0.2, phi=2 * math.pi)
    traj = integrate(cfg, InitialState.antisymmetric(), t_max=2.0)
    tq = np.random.default_rng(3).uniform(0.0, traj.t[-1], 2000)
    h = traj.t[1] - traj.t[0]
    idx = np.clip((tq / h).astype(int), 0, len(traj.t) - 2)
    u = tq / h - idx
    h00 = (1 + 2 * u) * (1 - u) ** 2
    h10 = u * (1 - u) ** 2
    h01 = u * u * (3 - 2 * u)
    h11 = u * u * (u - 1)
    got = traj.atomic(tq)
    for atom in (0, 1):
        assert np.array_equal(traj.atomic(tq, atom), got[atom])
    for c, y, dr, dl in zip(got, traj.c, traj.d_right, traj.d_left):
        want = (h00 * y[idx] + h * h10 * dr[idx] + h01 * y[idx + 1]
                + h * h11 * dl[idx + 1])
        assert np.array_equal(c, want)


# ---------------------------------------------------------------------------
# emitted spectrum
# ---------------------------------------------------------------------------

def test_spectrum_mirror_symmetry_and_balance():
    """Parity eigenstates emit mirror-symmetrically (|phi_R| = |phi_L|) and
    atomic population plus field norm stays at the initial excitation."""
    cfg = SystemConfig.from_phase("braided", eta=0.2, phi=0.7 * math.pi,
                                  gamma=1.0)
    traj = integrate(cfg, InitialState.symmetric(), t_max=6.0,
                     steps_per_delay=100)
    grid = frequency_grid(cfg, half_width=1200.0, n_points=6001)
    phi_r, phi_l = field_amplitudes(traj, grid, 6.0)
    assert phi_r.shape == grid.shape
    assert np.max(np.abs(np.abs(phi_r) - np.abs(phi_l))) < 1e-12
    total = excitation_balance(traj, grid, 6.0)
    assert total == pytest.approx(1.0, abs=2e-3)


def test_excitation_balance_improves_with_window():
    cfg = SystemConfig.from_phase("separate", eta=0.2, phi=math.pi)
    traj = integrate(cfg, InitialState.antisymmetric(), t_max=4.0,
                     steps_per_delay=160)
    errs = []
    for half_width, n in ((300.0, 8001), (2400.0, 16001)):
        grid = frequency_grid(cfg, half_width=half_width, n_points=n)
        errs.append(abs(excitation_balance(traj, grid, 4.0) - 1.0))
    assert errs[1] < errs[0]
    assert errs[1] < 1e-3


def test_field_amplitudes_amortised_sweep_matches_single_calls():
    """One increasing-time sweep must give the same amplitudes as separate
    calls, including across a drive switch that is not grid aligned.  Times
    in any order, repeats included, give the single calls' bits, for one
    channel (antisymmetric, symmetric) and for two (a mixed state)."""
    cfg = SystemConfig.from_phase("separate", eta=0.2, phi=2 * math.pi)
    sched = DriveSchedule.switch_at(1.23, cfg.omega0, 1.3 * cfg.omega0)
    grid = frequency_grid(cfg, half_width=30.0, n_points=401)
    for state in (InitialState.antisymmetric(), InitialState.symmetric(),
                  InitialState(0.8, 0.3 - 0.4j)):
        traj = integrate_with_drive(cfg, state, 3.0, sched, steps_per_delay=100)
        times = [0.8, 1.23, 2.9]
        swept_r, swept_l = field_amplitudes(traj, grid, times)
        for i, t_probe in enumerate(times):
            one_r, one_l = field_amplitudes(traj, grid, t_probe)
            assert np.max(np.abs(swept_r[i] - one_r)) < 1e-14
            assert np.max(np.abs(swept_l[i] - one_l)) < 1e-14
        for times in ([2.0, 1.0], [traj.horizon, 0.7, 2.5, 2.5, 1.0]):
            swept_r, swept_l = field_amplitudes(traj, grid, times)
            for i, t_probe in enumerate(times):
                one_r, one_l = field_amplitudes(traj, grid, t_probe)
                assert np.array_equal(swept_r[i], one_r)
                assert np.array_equal(swept_l[i], one_l)
        with pytest.raises(ConfigError):
            field_amplitudes(traj, grid, [1.0, math.nan])


def test_field_amplitudes_refuse_times_outside_the_run():
    """Snapshot times past the last node or before 0, beyond the grid-end
    slack, raise ConfigError (the nearest node would clamp them); the
    horizon itself is accepted, as by ``atomic``."""
    cfg = SystemConfig.from_phase("separate", eta=0.2, phi=2 * math.pi)
    sched = DriveSchedule.switch_at(1.23, cfg.omega0, 1.3 * cfg.omega0)
    traj = integrate_with_drive(cfg, InitialState.antisymmetric(), 3.0,
                                sched, steps_per_delay=100)
    grid = frequency_grid(cfg, half_width=30.0, n_points=401)
    for t_out in (4.1, -0.1, [1.0, 4.1]):
        with pytest.raises(ConfigError, match="run"):
            field_amplitudes(traj, grid, t_out)
    for t_out in (4.1, -0.1):
        with pytest.raises(ConfigError, match="run"):
            excitation_balance(traj, grid, t_out)
    last_r, _ = field_amplitudes(traj, grid, traj.horizon)
    assert np.array_equal(last_r, field_amplitudes(traj, grid, traj.t[-1])[0])
    assert math.isfinite(excitation_balance(traj, grid, traj.horizon))


def _exact_filon(theta, terms=60):
    """(w0, w1) from their Taylor series sum_k (i theta)^k/(k+2)! and sum_k
    (i theta)^k/(k!(k+2)) in exact rationals, for the float theta as given,
    rounded once to complex."""
    th = Fraction(theta)
    parts = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    for k in range(terms):
        # (i theta)^k: real for even k, imaginary for odd, sign (-1)^(k//2)
        term = (-1) ** (k // 2) * th ** k
        parts[0][k % 2] += term / math.factorial(k + 2)
        parts[1][k % 2] += term / (math.factorial(k) * (k + 2))
    return [complex(float(re), float(im)) for re, im in parts]


def test_filon_weights_match_exact_series():
    """Both weights to 1e-14 relative on either side of the series switch
    at |theta| = 0.5 and where the closed forms used to cancel (1e-4 to
    1e-2 lost up to 8 digits)."""
    mags = [0.0, 1e-6, 9.9e-5, 1.01e-4, 3e-4, 1e-3, 1e-2, 0.1, 0.49, 0.51,
            1.0, 2.0, 4.0]
    theta = np.array([s * m for m in mags for s in (1.0, -1.0)])
    w0, w1 = _filon_terms(theta, np.exp(1j * theta))
    for th, got0, got1 in zip(theta.tolist(), w0, w1):
        want0, want1 = _exact_filon(th)
        assert abs(got0 - want0) <= 1e-14 * abs(want0), th
        assert abs(got1 - want1) <= 1e-14 * abs(want1), th


def _dense_oracle(traj, omega_grid, times):
    """The Filon mode integral of :func:`field_amplitudes` by direct sums.

    Interval by interval in plain numpy, one exp(i omega tau) per node:
    c linear on each node interval, exp(i (omega - omega_s) tau) exact,
    with omega_s the drive of the segment that holds the interval's left
    node (so an interval holding a mid-step switch keeps the pre-switch
    drive).  Returns (phi_R, phi_L), each of shape (len(times), N_omega).
    """
    cfg, sched = traj.config, traj.schedule
    omega = np.asarray(omega_grid, dtype=float)
    tau = traj.t
    h = tau[1] - tau[0]
    rot = np.stack((traj.c_a, traj.c_b)) * np.exp(
        -1j * np.array([_accumulated(sched, tv) for tv in tau.tolist()]))
    seg_first = [math.ceil(s / h - 1e-9) for s in sched.starts]
    weights = []
    for w_s in sched.omegas:
        theta = (omega - w_s) * h
        w0, w1 = _filon_terms(theta, np.exp(1j * theta))
        weights.append((w0, w1 * np.exp(-1j * theta)))
    legs = [[np.exp(sign * 1j * np.outer(omega, cfg.leg_positions(atom))
                    / cfg.v_g).sum(axis=1) for atom in (0, 1)]
            for sign in (-1, +1)]
    g0 = math.sqrt(cfg.gamma / (4.0 * math.pi))
    stops = [traj.nearest_index(t) for t in times]
    out = np.zeros((2, len(stops), omega.size), dtype=complex)
    integral = np.zeros((2, omega.size), dtype=complex)
    term = rot[:, :1] * np.exp(1j * tau[0] * omega)
    for i in range(max(stops) + 1):
        for k, stop in enumerate(stops):
            if stop == i:
                for d, (leg_a, leg_b) in enumerate(legs):
                    out[d, k] = -1j * g0 * (leg_a * integral[0]
                                            + leg_b * integral[1])
        if i == max(stops):
            break
        nxt = rot[:, i + 1, None] * np.exp(1j * tau[i + 1] * omega)
        w0, w1s = weights[bisect_right(seg_first, i) - 1]
        integral += h * (w0 * term + w1s * nxt)
        term = nxt
    return out[0], out[1]


def _max_rel_diff(got, want) -> float:
    return max(float(np.max(np.abs(g - w)) / np.max(np.abs(w)))
               for g, w in zip(got, want))


@pytest.fixture(scope="module")
def switched_run():
    """Antisymmetric run with a drive switch in the middle of a step."""
    cfg = SystemConfig.from_phase("separate", eta=0.2, phi=2 * math.pi)
    sched = DriveSchedule.switch_at(1.2345, cfg.omega0, 1.3 * cfg.omega0)
    traj = integrate_with_drive(cfg, InitialState.antisymmetric(), 3.0,
                                sched, steps_per_delay=100)
    return cfg, traj


def test_uniform_grid_sum_matches_dense_sum_on_irregular_subset(switched_run):
    """A uniform grid and an irregular subset of it both match the direct
    sum on the subset, across both drive segments and in a multi-time
    sweep."""
    cfg, traj = switched_run
    grid = frequency_grid(cfg, half_width=600.0, n_points=6001)
    subset = np.sort(np.random.default_rng(5).choice(grid.size, 1501,
                                                     replace=False))
    times = [0.8, 1.7, 2.9]
    dense = _dense_oracle(traj, grid[subset], times)
    full = field_amplitudes(traj, grid, times)
    assert _max_rel_diff([f[:, subset] for f in full], dense) < 1e-9
    assert _max_rel_diff(field_amplitudes(traj, grid[subset], times),
                         dense) < 1e-9


def test_descending_and_tiny_uniform_grids_match_dense_sum(switched_run):
    cfg, traj = switched_run
    desc = frequency_grid(cfg, half_width=300.0, n_points=2001)[::-1]
    dense = _dense_oracle(traj, desc, [2.9])
    assert _max_rel_diff(field_amplitudes(traj, desc, 2.9),
                         [d[0] for d in dense]) < 1e-9
    for n in (1, 2, 3):
        grid = np.linspace(cfg.omega0 - 7.0, cfg.omega0 + 5.0, n)
        got = field_amplitudes(traj, grid, [1.1, 2.9])
        assert got[0].shape == (2, n)
        assert _max_rel_diff(got, _dense_oracle(traj, grid, [1.1, 2.9])) < 1e-9


def test_many_wrap_unsorted_grid_matches_dense_sum(switched_run):
    """Random frequencies in random order with |omega*h| up to ~30*2pi: the
    node sums wrap many times around the oversampled grid."""
    cfg, traj = switched_run
    h = traj.t[1] - traj.t[0]
    omega = np.random.default_rng(7).uniform(-60.0 * math.pi / h,
                                             60.0 * math.pi / h, 701)
    assert np.max(np.abs(omega * h)) > 25 * 2 * math.pi
    times = [0.5, 1.7, 2.9]
    assert _max_rel_diff(field_amplitudes(traj, omega, times),
                         _dense_oracle(traj, omega, times)) < 1e-9


def test_snapshot_at_zero_and_three_legs_match_dense_sum():
    """A snapshot at t = 0 is a run of one node (zero field); a three-leg
    braided pair checks the leg factors against the direct sum."""
    cfg = SystemConfig.from_phase("braided", eta=0.25, phi=0.3, n_legs=3)
    traj = integrate(cfg, InitialState(0.8, 0.3 - 0.4j), t_max=2.0,
                     steps_per_delay=50)
    grid = frequency_grid(cfg, half_width=400.0, n_points=1201)
    times = [0.0, 0.0, 1.1, 2.0]
    got = field_amplitudes(traj, grid, times)
    for phi in got:
        assert np.max(np.abs(phi[:2])) < 1e-12 * np.max(np.abs(phi))
    assert _max_rel_diff(got, _dense_oracle(traj, grid, times)) < 1e-9


@pytest.fixture(scope="module")
def three_segment_run():
    """Two switches, one on node 60 and one inside the step after node
    130, so three drive segments on a 201-node run."""
    cfg = SystemConfig.from_phase("braided", eta=0.2, phi=0.7 * math.pi)
    K = 50
    h = cfg.delay / K
    sched = DriveSchedule((0.0, 60 * h, 130.37 * h),
                          (cfg.omega0, 1.2 * cfg.omega0, 0.8 * cfg.omega0))
    traj = integrate_with_drive(cfg, InitialState(0.8, 0.3 - 0.4j), 200 * h,
                                sched, steps_per_delay=K)
    assert traj.t.size == 201
    # t = 0; inside segment 0; the on-node switch; segment 1 twice; node
    # 131, the mid-step switch's boundary node; segment 2; the last node
    times = traj.t[[0, 35, 60, 100, 100, 131, 170, 200]]
    return cfg, traj, times


def _grids(cfg, traj):
    """A uniform grid of two omega blocks and a part, and an unsorted
    irregular one wrapping several times around 2 pi/h."""
    h = traj.t[1] - traj.t[0]
    n = 2 * dde._OMEGA_BLOCK + 357
    uniform = frequency_grid(cfg, half_width=900.0, n_points=n)
    irregular = np.random.default_rng(11).uniform(-8.0 * math.pi / h,
                                                  8.0 * math.pi / h, 3001)
    return {"uniform": uniform, "irregular": irregular}


@pytest.mark.parametrize("kind", ["uniform", "irregular"])
def test_segment_ranges_match_dense_sum(three_segment_run, kind):
    """Snapshots in all three segments, on a boundary node, repeated and at
    t = 0, in one stacked transform and one blocked omega pass."""
    cfg, traj, times = three_segment_run
    omega = _grids(cfg, traj)[kind]
    assert omega.size % dde._OMEGA_BLOCK
    assert _max_rel_diff(field_amplitudes(traj, omega, times),
                         _dense_oracle(traj, omega, times)) < 1e-9


@pytest.mark.parametrize("kind", ["uniform", "irregular"])
def test_grouped_ranges_match_dense_sum(three_segment_run, kind,
                                        monkeypatch):
    """A grid cap below one range puts every node range in its own group,
    each with its own omega pass adding into the snapshots it reaches."""
    cfg, traj, times = three_segment_run
    omega = _grids(cfg, traj)[kind]
    monkeypatch.setattr(dde, "_GRID_CAP", 1)
    assert _max_rel_diff(field_amplitudes(traj, omega, times),
                         _dense_oracle(traj, omega, times)) < 1e-9


@pytest.mark.parametrize("kind", ["uniform", "irregular"])
def test_two_switches_in_one_step_match_dense_sum(kind):
    """A switch on node 60 and two inside the step after node 130: the
    middle segment holds no node interval (its first and last node are
    both 131), so a snapshot past it has a zero-length segment row."""
    cfg = SystemConfig.from_phase("braided", eta=0.2, phi=0.7 * math.pi)
    K = 50
    h = cfg.delay / K
    sched = DriveSchedule((0.0, 60 * h, 130.3 * h, 130.6 * h),
                          (cfg.omega0, 1.2 * cfg.omega0, 0.8 * cfg.omega0,
                           1.1 * cfg.omega0))
    traj = integrate_with_drive(cfg, InitialState(0.8, 0.3 - 0.4j), 200 * h,
                                sched, steps_per_delay=K)
    # t = 0; before, on and after the node switch; the nodes either side
    # of the switch pair; after it; the last node
    times = traj.t[[0, 35, 60, 100, 130, 131, 170, 200]]
    omega = _grids(cfg, traj)[kind]
    assert _max_rel_diff(field_amplitudes(traj, omega, times),
                         _dense_oracle(traj, omega, times)) < 1e-9


def test_criterion_8_run_matches_dense_sum():
    """The benchmark's criterion-8 run (4161 nodes, five snapshots, the
    80 001-point grid to +-6000), where whole-step phases come as powers of
    exp(i omega h) up to z^4160: within 1e-12 of the peak on every 40th
    point (1.8e-13 measured)."""
    cfg = SystemConfig.from_phase("separate", eta=0.2, phi=0.9 * math.pi)
    traj = integrate(cfg, InitialState.symmetric(), t_max=5.2,
                     steps_per_delay=160)
    grid = frequency_grid(cfg, half_width=6000.0, n_points=80001)
    times = [1.0, 2.0, 3.0, 4.0, 5.0]
    got = [phi[:, ::40] for phi in field_amplitudes(traj, grid, times)]
    assert _max_rel_diff(got, _dense_oracle(traj, grid[::40], times)) < 1e-12


def test_field_amplitudes_of_no_times_are_empty(switched_run):
    _, traj = switched_run
    grid = np.linspace(-30.0, 30.0, 7)
    phi_r, phi_l = field_amplitudes(traj, grid, [])
    assert phi_r.shape == phi_l.shape == (0, grid.size)


@pytest.mark.parametrize("grid", [np.array([]), np.zeros((2, 3)),
                                  np.array([1.0, np.nan, 3.0]),
                                  np.array([1.0, 2.0, np.inf])],
                         ids=["empty", "2-D", "nan", "inf"])
def test_field_amplitudes_rejects_bad_grids(switched_run, grid):
    _, traj = switched_run
    with pytest.raises(ConfigError, match="omega_grid"):
        field_amplitudes(traj, grid, 1.0)


def test_accumulated_array_matches_scalar_accumulated():
    """The absolute phase window_phase(t, t), t >= 0, is the scalar
    accumulator's at segment starts and inside each segment, and omega*t
    bit for bit on one segment."""
    sched = DriveSchedule((0.0, 1.2345, 2.5), (3.1, 4.7, -0.3))
    t = np.array([0.0, 0.7, 1.2345, 2.0, 2.5, 9.0])
    want = [_accumulated(sched, float(tv)) for tv in t]
    assert sched.window_phase(t, t).tolist() == want
    one = DriveSchedule.constant(3.1)
    t_one = np.linspace(0.0, 20.0, 401)
    assert one.window_phase(t_one, t_one).tolist() == (3.1 * t_one).tolist()


def _exact_window_phase(schedule, t, width):
    """Int_{t-width}^t omega0(s) ds in exact rationals, segment by segment,
    for the float inputs as given; segment 0 extends to t < 0."""
    t, lo = Fraction(t), Fraction(t) - Fraction(width)
    bounds = [Fraction(s) for s in schedule.starts[1:]]
    total = Fraction(0)
    for k, omega in enumerate(schedule.omegas):
        a = max(lo, bounds[k - 1]) if k else lo
        b = min(t, bounds[k]) if k < len(bounds) else t
        total += Fraction(omega) * max(b - a, 0)
    return total


def test_window_phase_is_the_windows_own_segment_sum():
    """On the README detect schedule (switch at t = 20 from phi = 2 pi to
    2.5 pi per delay), every window phase that the integrator's switch
    passes and the detector form is within 4 ulp of the exact sum over the
    window's segments.  Subtracting two absolute phases instead misses by
    over 50 ulp.  The absolute phases window_phase(t, t) that ``fdd`` and
    ``field_amplitudes`` take keep the same bound on a three-segment
    schedule."""
    cfg = SystemConfig.from_phase("separate", eta=0.2, phi=2 * math.pi)
    sched = DriveSchedule.switch_at(20.0, cfg.omega0, 2.5 * math.pi / cfg.delay)
    h = cfg.delay / 100
    nodes = np.arange(1990, 2070) * h
    times = np.concatenate((nodes, nodes + 0.5 * h))
    cases = [(sched, times, lag * cfg.delay) for lag in (1, 2, 3)]
    t_bar = np.linspace(0.0, 85.0, 8501)[::5]
    cases += [(sched, t_bar, (3 - slot) * cfg.spacing / cfg.v_g)
              for slot in (0, 1, 2)]
    three = DriveSchedule((0.0, 1.2345, 2.5), (3.1, 4.7, -0.3))
    t_abs = np.concatenate(([0.0, 0.7, 1.2345, 2.0, 2.5, 9.0],
                            np.linspace(0.0, 20.0, 401)))
    cases += [(three, t_abs, t_abs)]
    worst_own = worst_difference = 0.0
    for schedule, t, width in cases:
        own = schedule.window_phase(t, width)
        for tv, wv, got in zip(t.tolist(), np.broadcast_to(width, t.shape)
                               .tolist(), own.tolist()):
            exact = _exact_window_phase(schedule, tv, wv)
            ulp = Fraction(float(np.spacing(float(exact))))
            diff = _accumulated(schedule, tv) - _accumulated(schedule, tv - wv)
            worst_own = max(worst_own, abs(Fraction(got) - exact) / ulp)
            worst_difference = max(worst_difference,
                                   abs(Fraction(diff) - exact) / ulp)
    assert worst_own <= 4
    assert worst_difference > 50


def test_frequency_grid_defaults():
    cfg = SystemConfig.from_phase("separate", eta=0.5, phi=1.0, gamma=1.0)
    grid = frequency_grid(cfg)
    assert len(grid) == 4001
    assert grid[len(grid) // 2] == pytest.approx(cfg.omega0)
    assert grid[-1] - grid[0] == pytest.approx(2 * 40.0 / cfg.delay)
    # the default window 40/delay has no width at delay 0
    with pytest.raises(ConfigError, match="delay > 0"):
        frequency_grid(SystemConfig(topology="separate", delay=0.0))


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def test_to_csv_format(tmp_path):
    cfg = SystemConfig.from_phase("separate", eta=0.2, phi=2 * math.pi)
    traj = integrate(cfg, InitialState.antisymmetric(), t_max=0.5,
                     steps_per_delay=50)
    path = tmp_path / "traj.csv"
    to_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# giantqed amplitude trajectory"
    assert any("topology = separate" in s for s in lines if s.startswith("#"))
    header_i = lines.index("t,re_ca,im_ca,re_cb,im_cb,pop_a,pop_b")
    rows = [line.split(",") for line in lines[header_i + 1:]]
    assert len(rows) == len(traj.t)
    got = np.array([[float(v) for v in row] for row in rows])
    assert np.array_equal(got[:, 0], traj.t)
    assert np.array_equal(got[:, 1], traj.c_a.real)
    assert np.array_equal(got[:, 6], traj.pop_b)
    assert "np.float64" not in path.read_text()
    # single-segment runs do not advertise a schedule
    assert not any(s.startswith("# schedule") for s in lines)


def test_to_csv_includes_multi_segment_schedule(tmp_path):
    cfg = SystemConfig.from_phase("separate", eta=0.2, phi=2 * math.pi)
    sched = DriveSchedule.switch_at(0.3, cfg.omega0, 0.5 * cfg.omega0)
    traj = integrate_with_drive(cfg, InitialState.antisymmetric(), 0.6,
                                sched, steps_per_delay=50)
    path = tmp_path / "traj.csv"
    to_csv(traj, path)
    sched_lines = [s for s in path.read_text().splitlines()
                   if s.startswith("# schedule")]
    assert len(sched_lines) == 1
    assert "0.3" in sched_lines[0]
