"""Real-space emission maps and the right-side detector.

The load-bearing check reconstructs the intensity at one spacetime point
from the frequency-space amplitudes by direct numerical mode integration
(with a Hann-tapered window; the sharp-cutoff tail error decays only like
1/width and oscillates), which shares no position-space code with fdd.
"""

import math

import numpy as np
import pytest

from giantqed.analytic import exact_solution
from giantqed.dde import DriveSchedule, integrate, integrate_with_drive
from giantqed.field import (DetectorRecord, FieldGrid, detector_signal, fdd,
                            field_amplitudes, released_energy)
from giantqed.model import ConfigError, InitialState, SystemConfig


def _dark_config(eta=0.2):
    return SystemConfig.from_phase("separate", eta=eta, phi=2 * math.pi)


def _jittered_symmetric_grid(rng, span, n):
    """Sign-symmetric x grid that avoids exact light-cone hits.

    The half-value edge convention makes the intensity on the measure-zero
    cone lines sensitive to 1-ULP float asymmetries, so symmetry checks use
    random interior points mirrored exactly.
    """
    xpos = np.sort(rng.uniform(1e-6, span, n))
    return np.concatenate([-xpos[::-1], xpos])


def test_intensity_matches_mode_integral_oracle():
    cfg = _dark_config()
    v = cfg.v_g
    state = InitialState.antisymmetric()
    t_star = 1.7 * cfg.delay
    x_star = 2.0 * cfg.spacing
    traj = integrate(cfg, state, t_max=t_star, steps_per_delay=200)
    target = fdd(traj, cfg, -1, np.array([x_star]),
                 np.array([t_star])).intensity[0, 0]

    def mode_integral(width_dt, n):
        hw = width_dt / cfg.delay
        grid = np.linspace(cfg.omega0 - hw, cfg.omega0 + hw, n)
        w = np.ones(n)
        m = int(0.3 * n)
        ramp = 0.5 * (1 - np.cos(np.pi * np.arange(m) / m))
        w[:m] = ramp
        w[-m:] = ramp[::-1]
        phi_r, phi_l = field_amplitudes(traj, grid, t_star)
        psi = np.trapezoid(
            w * phi_r * np.exp(1j * grid * (x_star / v - t_star)), grid)
        psi += np.trapezoid(
            w * phi_l * np.exp(-1j * grid * (x_star / v + t_star)), grid)
        psi /= math.sqrt(2 * math.pi * v)
        return (2 * math.pi / v) * abs(psi) ** 2

    coarse = abs(mode_integral(400.0, 80001) - target) / target
    fine = abs(mode_integral(800.0, 160001) - target) / target
    assert fine < 1e-4
    assert fine < coarse


def test_causality_and_zero_time():
    cfg = SystemConfig.from_phase("braided", eta=0.3, phi=1.1 * math.pi)
    sol = exact_solution(cfg, InitialState.symmetric(), t_max=3 * cfg.delay)
    edge = 1.5 * cfg.spacing
    t = np.array([-0.5, 0.0, 0.4 * cfg.delay, 2.5 * cfg.delay])
    x = np.array([-(edge + cfg.v_g * 30.0), -5.0, 0.3, edge + cfg.v_g * 2.0,
                  edge + cfg.v_g * 2.5 * cfg.delay + 1e-6])
    grid = fdd(sol, cfg, +1, x, t)
    assert np.all(grid.intensity[t <= 0, :] == 0.0)
    # outside the light cone |x| > edge + v t the field is exactly zero
    for i, ti in enumerate(t):
        outside = np.abs(x) > edge + cfg.v_g * max(ti, 0.0)
        assert np.all(grid.intensity[i, outside] == 0.0)
    # and inside it is generically nonzero
    assert grid.intensity[3, 2] > 0.0


@pytest.mark.parametrize("topology,parity", [("separate", +1),
                                             ("separate", -1),
                                             ("braided", +1),
                                             ("braided", -1)])
def test_mirror_symmetry_on_cone_avoiding_grids(topology, parity):
    """Legs sit symmetrically about x = 0, so parity eigenstates radiate
    mirror-symmetric intensity patterns, exactly in floating point."""
    cfg = SystemConfig.from_phase(topology, eta=0.25, phi=0.6 * math.pi)
    state = (InitialState.symmetric() if parity > 0
             else InitialState.antisymmetric())
    sol = exact_solution(cfg, state, t_max=3 * cfg.delay)
    rng = np.random.default_rng(hash((topology, parity)) % 2 ** 31)
    x = _jittered_symmetric_grid(rng, 3.0, 120)
    t = np.array([0.7 * cfg.delay, 1.9 * cfg.delay, 3.3 * cfg.delay])
    inten = fdd(sol, cfg, parity, x, t).intensity
    asym = np.max(np.abs(inten - inten[:, ::-1]))
    assert asym <= 1e-13 * inten.max()


def test_spatial_integral_tracks_atomic_loss():
    """(v/2pi) * int I dx equals the emitted excitation fraction up to the
    right/left interference term.

    The map is the coherent |psi_R + psi_L|^2 a detector would see; its
    integral differs from the photon number by 2 Re int psi_R* psi_L dx,
    which oscillates like exp(2i omega0 x / v) and so is negligible when
    the carrier is fast on the packet scale (here omega0 ~ 31 / time unit).
    """
    cfg = SystemConfig.from_phase("braided", eta=0.2, phi=2 * math.pi)
    state = InitialState.symmetric()
    t_max = 5.0
    traj = integrate(cfg, state, t_max=t_max, steps_per_delay=100)
    times = np.array([0.5, 1.5, 3.0, 5.0])
    span = 1.5 * cfg.spacing + cfg.v_g * t_max + 0.5
    x = np.linspace(-span, span, 24001)
    grid = fdd(traj, cfg, +1, x, times)
    photon = cfg.v_g / (2 * math.pi) * grid.spatial_integral()
    for i, ti in enumerate(times):
        atomic = float(traj.excited_population[traj.nearest_index(ti)])
        assert photon[i] + atomic == pytest.approx(1.0, abs=2e-3)


def test_trapped_interior_field_of_the_dark_state():
    """After the transient leaves, the interior field of a trapped
    configuration carries overlap * field_weight of an excitation and the
    exterior is empty."""
    from giantqed.bic import bic_state, overlap_with_initial

    cfg = _dark_config(eta=0.2)
    state = InitialState.antisymmetric()
    sol = exact_solution(cfg, state, t_max=61.0)
    bic = bic_state(cfg)
    expected = overlap_with_initial(bic, state) * bic.field_weight

    edge = 1.5 * cfg.spacing
    x_in = np.linspace(-edge, edge, 1501)
    grid_in = fdd(sol, cfg, -1, x_in, np.array([60.0]))
    interior = cfg.v_g / (2 * math.pi) * grid_in.spatial_integral()[0]
    assert interior == pytest.approx(expected, abs=1e-4)

    x_out = np.linspace(edge + 5.0, edge + 15.0, 801)
    grid_out = fdd(sol, cfg, -1, x_out, np.array([60.0]))
    assert grid_out.intensity.max() < 1e-8 * grid_in.intensity.max()


def test_series_and_trajectory_sources_agree():
    cfg = SystemConfig.from_phase("separate", eta=0.3, phi=0.9 * math.pi)
    state = InitialState.antisymmetric()
    sol = exact_solution(cfg, state, t_max=4 * cfg.delay)
    traj = integrate(cfg, state, t_max=4 * cfg.delay, steps_per_delay=150)
    x = np.linspace(-2.0, 2.0, 101)
    t = np.array([0.9 * cfg.delay, 3.1 * cfg.delay])
    a = fdd(sol, cfg, -1, x, t).intensity
    b = fdd(traj, cfg, -1, x, t).intensity
    assert np.max(np.abs(a - b)) < 1e-6 * a.max()


def test_fdd_input_validation():
    cfg = _dark_config()
    state = InitialState.antisymmetric()
    sol = exact_solution(cfg, state, t_max=2 * cfg.delay)
    x, t = np.array([0.0]), np.array([1.0 * cfg.delay])
    with pytest.raises(ConfigError):
        fdd(sol, cfg, 0, x, t)
    with pytest.raises(ConfigError):
        fdd(sol, cfg, +1, x, t)                 # parity mismatch
    with pytest.raises(ConfigError):
        fdd(sol, cfg, -1, x, np.array([5.0 * cfg.delay]))  # past horizon
    with pytest.raises(ConfigError):
        fdd(sol, cfg, -1, np.array([]), t)
    with pytest.raises(TypeError):
        fdd(np.zeros(4), cfg, -1, x, t)
    other = SystemConfig.from_phase("separate", eta=0.35, phi=2 * math.pi)
    with pytest.raises(ConfigError):
        fdd(sol, other, -1, x, t)               # series built at another delay
    braided = SystemConfig.from_phase("braided", eta=0.2, phi=2 * math.pi)
    traj = integrate(cfg, state, t_max=2 * cfg.delay, steps_per_delay=60)
    with pytest.raises(ConfigError):
        fdd(traj, braided, -1, x, t)            # trajectory topology mismatch
    lopsided = integrate(cfg, InitialState(c_a=1.0, c_b=0.0), t_max=1.0,
                         steps_per_delay=60)
    with pytest.raises(ConfigError):
        fdd(lopsided, cfg, -1, x, t)            # not a parity eigenstate


def test_fdd_refuses_a_drive_phase_past_the_float_range():
    """omega0 = 5e307 keeps the coupling table's phases finite, but its
    retarded drive phase omega0*t leaves the float range past t = 3.6: a
    map up to t = 3 runs, one up to t = 4 raises ConfigError naming
    omega0, under an errstate that would otherwise raise on the overflow."""
    cfg = SystemConfig(topology="separate", gamma=1.0, delay=1.0,
                       omega0=5e307)
    state = InitialState.antisymmetric()
    traj = integrate(cfg, state, t_max=4.0, steps_per_delay=50)
    x = np.linspace(-3.0, 3.0, 5)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert np.isfinite(fdd(traj, cfg, -1, x, [0.0, 3.0]).intensity).all()
        with pytest.raises(ConfigError, match="omega0"):
            fdd(traj, cfg, -1, x, [0.0, 4.0])


def test_field_amplitudes_refuse_a_drive_phase_past_the_float_range():
    """The record ``fdd`` refuses at t = 4: the mode sum's rotating frame
    takes the drive phase omega0*tau at every node up to the run's last,
    2e308, so any snapshot raises ConfigError naming omega0.  Unchecked,
    the t = 4 snapshot was all NaN, and under a raising errstate every
    snapshot raised FloatingPointError."""
    cfg = SystemConfig(topology="separate", gamma=1.0, delay=1.0,
                       omega0=5e307)
    traj = integrate(cfg, InitialState.antisymmetric(), t_max=4.0,
                     steps_per_delay=50)
    grid = np.linspace(-40.0, 40.0, 41)
    for snapshots in (4.0, [1.0, 4.0]):
        with pytest.raises(ConfigError, match="omega0"):
            field_amplitudes(traj, grid, snapshots)
        with np.errstate(over="raise", invalid="raise", divide="raise"), \
                pytest.raises(ConfigError, match="omega0"):
            field_amplitudes(traj, grid, snapshots)


@pytest.mark.parametrize("kind, state", [
    ("trajectory", InitialState.antisymmetric()),
    ("series", InitialState.antisymmetric()),
    ("trajectory", InitialState(0.6, 0.8j)),
    ("trajectory", InitialState(0.0, 0.0))],
    ids=["trajectory", "series", "two-channel", "zero"])
def test_records_share_one_contract(kind, state):
    """A trajectory and a series of one (config, state) answer the same
    questions the same way: parity, state and schedule; the horizon is the
    last legal time; one atom is its pair's entry bit for bit (two channels
    and none included); and fdd refuses another parity with one message."""
    cfg = _dark_config()
    record = (integrate(cfg, state, t_max=3 * cfg.delay, steps_per_delay=50)
              if kind == "trajectory" else
              exact_solution(cfg, state, t_max=3 * cfg.delay))
    assert record.config == cfg and record.state == state
    assert record.parity == state.parity
    assert record.schedule.omegas == (cfg.omega0,)
    record.atomic(record.horizon)
    with pytest.raises(ConfigError):
        record.atomic(np.nextafter(record.horizon, math.inf))
    t = np.linspace(0.0, record.horizon, 97)
    pair = record.atomic(t)
    for atom in (0, 1):
        assert np.array_equal(record.atomic(t, atom), pair[atom])
        assert record.atomic(t[40], atom) == pair[atom][40]
    with pytest.raises(ConfigError) as refused:
        fdd(record, cfg, +1, np.array([0.5]), np.array([cfg.delay]))
    assert str(refused.value) == (f"source has exchange parity "
                                  f"{state.parity}, not +1")


def test_non_finite_times_are_refused():
    """NaN times and positions raise ConfigError at every entry point
    instead of mapping to an index, a NaN or an all-zero row."""
    cfg, state = _dark_config(), InitialState.antisymmetric()
    sol = exact_solution(cfg, state, t_max=3 * cfg.delay)
    traj = integrate(cfg, state, t_max=3 * cfg.delay, steps_per_delay=50)
    with pytest.raises(ConfigError):
        sol.evaluate(math.nan)
    with pytest.raises(ConfigError):
        traj.atomic(math.nan)
    for source in (sol, traj):
        with pytest.raises(ConfigError, match="finite"):
            fdd(source, cfg, -1, np.array([0.5]), np.array([0.5, math.nan]))
        with pytest.raises(ConfigError, match="finite"):
            fdd(source, cfg, -1, np.array([0.5, math.nan]), np.array([0.5]))
        with pytest.raises(ConfigError, match="finite"):
            detector_signal(source, cfg, 1.0, np.array([0.5, math.nan]))


@pytest.mark.parametrize("other", [
    SystemConfig.from_phase("braided", eta=0.2, phi=2 * math.pi),
    SystemConfig.from_phase("separate", eta=0.2, phi=2.5 * math.pi),
    SystemConfig.from_phase("separate", eta=0.2, phi=2 * math.pi, v_g=3.0)],
    ids=["topology", "phi", "v_g"])
def test_sources_refuse_another_config(other):
    """A series or a trajectory built for one system is refused for another
    topology, phi or v_g at the same delay, by both fdd and the detector."""
    cfg, state = _dark_config(), InitialState.antisymmetric()
    assert other != cfg and other.delay == cfg.delay
    sources = (exact_solution(cfg, state, t_max=4 * cfg.delay),
               integrate(cfg, state, t_max=4 * cfg.delay, steps_per_delay=50))
    x, t = np.array([0.5]), np.array([2.0 * cfg.delay])
    for source in sources:
        with pytest.raises(ConfigError, match="source built for"):
            fdd(source, other, -1, x, t)
        with pytest.raises(ConfigError, match="source built for"):
            detector_signal(source, other, 1.0, t)


def test_field_grid_csv(tmp_path):
    cfg = _dark_config()
    sol = exact_solution(cfg, InitialState.antisymmetric(), t_max=2 * cfg.delay)
    x = np.linspace(-1.0, 1.0, 5)
    t = np.array([0.5 * cfg.delay, 1.5 * cfg.delay])
    grid = fdd(sol, cfg, -1, x, t)
    path = tmp_path / "field.csv"
    grid.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# giantqed emitted field map"
    body = [line for line in lines if not line.startswith("#")]
    assert body[0] == "x,t,intensity"
    assert len(body) == 1 + x.size * t.size
    x0, t0, v0 = body[1].split(",")
    assert float(x0) == x[0] and float(t0) == t[0]
    assert float(v0) == grid.intensity[0, 0]
    assert "np.float64" not in path.read_text()


# ---------------------------------------------------------------------------
# detector
# ---------------------------------------------------------------------------

def test_detector_dark_state_goes_quiet():
    """A trapped configuration radiates only its transient: the detector
    intensity after ~30/gamma is indistinguishable from zero."""
    cfg = _dark_config(eta=0.2)
    sol = exact_solution(cfg, InitialState.antisymmetric(), t_max=41.0)
    tb = np.linspace(0.0, 40.0, 2001)
    rec = detector_signal(sol, cfg, x0=1.0, t_bar_grid=tb)
    late = rec.intensity[tb > 30.0]
    assert late.max() < 1e-6
    # the transient right after release is not zero
    assert rec.intensity[(tb > 0.5) & (tb < 2.0)].max() > 1e-3


def test_detector_signal_reawakens_on_drive_switch():
    """Shifting the drive frequency breaks the trapping interference and
    the stored excitation leaks back out past the detector."""
    cfg = _dark_config(eta=0.2)
    t_s = 20.0
    sched = DriveSchedule.switch_at(t_s, cfg.omega0,
                                    2.5 * math.pi / cfg.delay)
    traj = integrate_with_drive(cfg, InitialState.antisymmetric(), 30.0,
                                sched, steps_per_delay=100)
    tb = np.linspace(0.0, 29.0, 3001)
    rec = detector_signal(traj, cfg, x0=2.0, t_bar_grid=tb)
    before = rec.intensity[(tb > t_s / 2) & (tb < t_s)]
    after = rec.intensity[tb > t_s + 1.0]
    assert before.max() < 1e-10
    assert after.max() > 1e-3


@pytest.mark.parametrize("switched", [False, True])
def test_fdd_past_the_last_leg_is_the_detector_signal(switched):
    """Past the last leg fdd and the detector sum the same retarded legs:
    I(x_last + x0, t_bar + x0/v_g) = pi/(4 v_g) |amplitude(t_bar)|^2, on a
    radiant run and on a switched dark run away from gamma = v_g = 1."""
    if switched:
        cfg = SystemConfig.from_phase("separate", eta=0.2, phi=2 * math.pi,
                                      gamma=0.7, v_g=1.9)
        sched = DriveSchedule.switch_at(3.0, cfg.omega0,
                                        2.5 * math.pi / cfg.delay)
        state = InitialState.antisymmetric()
    else:
        cfg = SystemConfig.from_phase("braided", eta=0.3, phi=0.7 * math.pi)
        sched = DriveSchedule.constant(cfg.omega0)
        state = InitialState.symmetric()
    traj = integrate_with_drive(cfg, state, 8.0, sched, steps_per_delay=100)
    x0 = 0.37 * cfg.spacing
    x_last = max(max(cfg.leg_positions(atom)) for atom in (0, 1))
    tb = np.sort(np.random.default_rng(3).uniform(0.0, 7.5, 400))
    record = detector_signal(traj, cfg, x0, tb)
    grid = fdd(traj, cfg, state.parity, np.array([x_last + x0]),
               tb + x0 / cfg.v_g)
    want = math.pi / (4.0 * cfg.v_g) * record.intensity
    assert np.max(np.abs(grid.intensity[:, 0] - want)) <= 1e-12 * want.max()


def test_detector_is_zero_before_release():
    cfg = _dark_config()
    sol = exact_solution(cfg, InitialState.antisymmetric(), t_max=11 * cfg.delay)
    tb = np.linspace(-2.0, 1.0, 301)
    rec = detector_signal(sol, cfg, x0=0.5, t_bar_grid=tb)
    assert np.all(rec.amplitude[tb < 0] == 0.0)
    assert np.all(rec.intensity[tb < 0] == 0.0)


def test_detector_input_validation():
    cfg = _dark_config()
    sol = exact_solution(cfg, InitialState.antisymmetric(), t_max=2 * cfg.delay)
    tb = np.linspace(0.0, 0.5, 11)
    with pytest.raises(ConfigError):
        detector_signal(sol, cfg, x0=0.0, t_bar_grid=tb)
    with pytest.raises(ConfigError):
        detector_signal(sol, cfg, x0=math.nan, t_bar_grid=tb)
    with pytest.raises(ConfigError):
        detector_signal(sol, cfg, x0=1.0,
                        t_bar_grid=np.linspace(0, 10 * cfg.delay, 5))
    with pytest.raises(ConfigError):
        detector_signal(sol, cfg, x0=1.0, t_bar_grid=np.array([]))


def test_detector_window_ending_an_ulp_past_the_run():
    """The run's last node sits an ulp short of t_max = 81.9; a detector
    window ending at t_max reads that node instead of being refused."""
    cfg = SystemConfig.from_phase("separate", eta=1.3, phi=0.0)
    traj = integrate(cfg, InitialState.antisymmetric(), 81.9, 150)
    assert traj.t[-1] < 81.9
    record = detector_signal(traj, cfg, 2.0, np.linspace(0.0, 81.9, 200))
    assert np.all(np.isfinite(record.amplitude))
    at_node = detector_signal(traj, cfg, 2.0, np.array([traj.t[-1]]))
    assert record.amplitude[-1] == pytest.approx(at_node.amplitude[0],
                                                 abs=1e-12)


def test_released_energy_window_additivity():
    cfg = _dark_config(eta=0.2)
    sol = exact_solution(cfg, InitialState.antisymmetric(), t_max=13.0)
    tb = np.linspace(0.0, 12.0, 4001)
    rec = detector_signal(sol, cfg, x0=1.0, t_bar_grid=tb)
    total = released_energy(rec)
    split = released_energy(rec, (0.0, 3.7)) + released_energy(rec, (3.7, 12.0))
    assert split == pytest.approx(total, abs=1e-9)
    assert total > 0.0
    with pytest.raises(ConfigError):
        released_energy(rec, (5.0, 4.0))
    with pytest.raises(ConfigError):
        released_energy(rec, (0.0, 20.0))


def test_released_energy_zero_for_silent_record():
    cfg = _dark_config()
    rec = DetectorRecord(t_bar=np.linspace(0, 1, 11),
                         amplitude=np.zeros(11, dtype=complex),
                         x0=1.0, config=cfg)
    assert released_energy(rec) == 0.0


def test_detector_record_csv(tmp_path):
    cfg = _dark_config()
    sol = exact_solution(cfg, InitialState.antisymmetric(), t_max=7 * cfg.delay)
    tb = np.linspace(0.0, 1.2, 25)
    rec = detector_signal(sol, cfg, x0=0.75, t_bar_grid=tb)
    path = tmp_path / "det.csv"
    rec.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# giantqed detector record"
    assert any("x0_beyond_last_leg = 0.75" in s for s in lines)
    body = [line for line in lines if not line.startswith("#")]
    assert body[0] == "t_bar,re_amp,im_amp,intensity"
    cells = body[1 + 7].split(",")
    assert float(cells[0]) == tb[7]
    assert float(cells[1]) == rec.amplitude[7].real
    assert float(cells[3]) == rec.intensity[7]
    assert "np.float64" not in path.read_text()
