"""Command-line front end.

Five subcommands map onto the compute modules::

    simulate     amplitude dynamics (dde / exact series / both)
    decay-rates  complex collective decay rates vs leg spacing
    fdd          space-time map of the emitted field intensity
    bic          bound-state-in-the-continuum report
    detect       detector signal, including drive-switch re-release

System parameters resolve in order: built-in defaults, then an INI config
file (``--config``, sections ``[system]`` and ``[run]``), then environment
variables prefixed ``GIANTQED_`` (e.g. ``GIANTQED_ETA``), then explicit
flags.  Geometry is given either as the dimensionless pair ``--eta/--phi``
or as the physical pair ``--omega0/--dx``; mixing the two is a usage
error.  Angles accept multiples of pi ("2pi", "0.5pi").

All artifacts are plain CSV (and NDJSON for the bic report) with
config-echo comment headers; identical parameters produce byte-identical
files.  SVG plots are optional conveniences behind ``--svg``.  A run
writes all its files and its manifest after every result is computed, or
nothing when it fails, its writes included.  Exit codes: 0 success, 2
usage/config error (a ``ConfigError``; a failed write names --out), 3
numerical failure (a pole that does not converge, an exact series whose
rounding bound passes 1e-6, a floating-point error).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import tempfile
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analytic import _BRANCH_BUDGET, IllConditioned, exact_solution
from .bic import bic_field_profile, bic_state, field_norm, overlap_with_initial
from .dde import (GRID_END_SLACK, DriveSchedule, _check_node_budget,
                  _write_trajectory, integrate, integrate_with_drive,
                  to_csv as traj_to_csv)
from .field import _pyplot, detector_signal, fdd as compute_fdd, released_energy
from .model import ConfigError, InitialState, SystemConfig
from .spectral import NonConvergence, scan_decay_rates

ENV_PREFIX = "GIANTQED_"
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_SYSTEM_KEYS = ("topology", "eta", "phi", "omega0", "dx", "gamma", "v_g")
_RUN_KEYS = ("state", "engine", "out")
_ANGLE_KEYS = {"phi", "phi_after"}

#: Most cells (nx * nt + interior points near a leg) * legs * 2 directions
#: one fdd run may take, checked before the map is built: 43 x the README's.
_FDD_CELL_BUDGET = 2 * 10 ** 7

#: Most scan points: 1.3 kB of peak memory each, 131 MB (167 x the README's)
_SCAN_POINT_BUDGET = 10 ** 5
#: Most detect times: 0.2 kB of peak memory each, 200 MB (118 x the default)
_DETECT_POINT_BUDGET = 10 ** 6


def parse_angle(text: str) -> float:
    """Float parser that also accepts '2pi', '-pi', '0.5pi'."""
    s = str(text).strip().lower().replace(" ", "").replace("*", "")
    head, unit = (s[:-2], math.pi) if s.endswith("pi") else (s, 1.0)
    if unit != 1.0 and head in ("", "+", "-"):
        head += "1"
    try:
        return float(head) * unit
    except ValueError:
        raise ConfigError(f"cannot parse angle {text!r}") from None


# ---------------------------------------------------------------------------
# parameter resolution
# ---------------------------------------------------------------------------

def _read_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)  # '%' is text
    try:
        parser.read(path)
    except configparser.Error as exc:
        # one line: configparser's spans lines or repeats "... [line 3]: "
        lineno, text = exc.errors[0] if getattr(exc, "errors", None) else (
            exc.lineno, str(exc).splitlines()[0].rpartition("]: ")[2])
        raise ConfigError(f"cannot parse config file {path}, line {lineno}: "
                          f"{text}") from None
    known = {"system": _SYSTEM_KEYS, "run": _RUN_KEYS}
    out: dict = {}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in known[section]:
                raise ConfigError(f"unknown key '{key}' in [{section}]")
            out[key] = value
    return out


def _env_overrides() -> dict:
    out = {}
    for key in _SYSTEM_KEYS + _RUN_KEYS:
        value = os.environ.get(ENV_PREFIX + key.upper())
        if value is not None:
            out[key] = value
    return out


def resolve_params(args: argparse.Namespace) -> dict:
    """Merge defaults < config file < environment < explicit flags.

    Returns a dict whose values are still strings when they came from the
    file/environment; ``build_config`` does the typed conversion.  A key
    is present only if some layer actually set it.
    """
    merged: dict = {}
    if getattr(args, "config", None):
        merged.update(_read_config_file(args.config))
    merged.update(_env_overrides())
    for key in _SYSTEM_KEYS + _RUN_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _parse_number(key: str, value) -> float:
    """Finite float of parameter ``key``; angles accept multiples of pi."""
    flag = "--" + key.replace("_", "-")
    try:
        number = parse_angle(value) if key in _ANGLE_KEYS else float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"cannot parse {flag} value {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{flag} must be finite, got {value!r}")
    return number


def _topology_gamma_vg(params: dict) -> tuple[str, float, float]:
    """(topology, gamma, v_g) from the merged parameter dict."""
    return (str(params.get("topology", "separate")),
            _parse_number("gamma", params.get("gamma", 1.0)),
            _parse_number("v_g", params.get("v_g", 1.0)))


def build_config(params: dict) -> SystemConfig:
    """Typed SystemConfig from the merged parameter dict.

    The (eta, phi) and (omega0, dx) parameterizations are mutually
    exclusive.  Unparsable or non-finite values, and values the model
    rejects (gamma <= 0, eta < 0 ...), raise ConfigError.
    """
    topology, gamma, v_g = _topology_gamma_vg(params)
    has_phase = "eta" in params or "phi" in params
    has_physical = "omega0" in params or "dx" in params
    if has_phase and has_physical:
        raise ConfigError("give either (--eta, --phi) or (--omega0, --dx), "
                          "not a mix")
    if has_physical:
        if not ("omega0" in params and "dx" in params):
            raise ConfigError("--omega0 and --dx must be given together")
        if v_g <= 0:
            raise ConfigError("--v-g must be positive")
        dx = _parse_number("dx", params["dx"])
        if dx <= 0:
            raise ConfigError(f"--dx must be positive, got {params['dx']!r}")
        return SystemConfig(topology=topology, gamma=gamma, delay=dx / v_g,
                            omega0=_parse_number("omega0", params["omega0"]),
                            v_g=v_g)
    eta = _parse_number("eta", params.get("eta", 0.2))
    phi = _parse_number("phi", params.get("phi", 0.0))
    if eta == 0.0:
        if phi != 0.0:
            raise ConfigError("eta = 0 (no retardation) requires phi = 0")
        return SystemConfig(topology=topology, gamma=gamma, delay=0.0, v_g=v_g)
    return SystemConfig.from_phase(topology, eta, phi, gamma=gamma, v_g=v_g)


def build_state(params: dict) -> InitialState:
    name = str(params.get("state", "symmetric")).lower()
    if name in ("symmetric", "sym", "+"):
        return InitialState.symmetric()
    if name in ("antisymmetric", "antisym", "asym", "-"):
        return InitialState.antisymmetric()
    raise ConfigError(f"unknown state {name!r} "
                      "(use symmetric or antisymmetric)")


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunManifest:
    """What a run was: subcommand, resolved config, destination."""

    command: str
    config: SystemConfig
    out_dir: str

    def lines(self) -> list[str]:
        return ["# giantqed run manifest",
                f"command = {self.command}",
                f"version = {__version__}",
                "deterministic = true",
                f"out_dir = {self.out_dir}",
                *self.config.summary_lines()]

    def write(self, path: str) -> None:
        _write_text(path, "\n".join(self.lines()) + "\n")


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _write_all(out_dir: str, base: str, files: list) -> None:
    """Write each (name, writer) into a fresh hidden directory in ``base``
    (``--out`` or its nearest existing ancestor: the same filesystem), then
    rename them into ``out_dir``; an OSError removes it, a ConfigError.  A
    target that is a directory is refused before the first rename."""
    try:
        with tempfile.TemporaryDirectory(prefix=".giantqed-", dir=base) as stage:
            for name, write in files:
                write(os.path.join(stage, name))
            for name, _ in files:
                if os.path.isdir(os.path.join(out_dir, name)):
                    raise ConfigError(f"--out {out_dir!r}: {name!r} is a directory")
            os.makedirs(out_dir, exist_ok=True)
            for name, _ in files:
                os.replace(os.path.join(stage, name), os.path.join(out_dir, name))
    except OSError as exc:
        raise ConfigError(f"--out {out_dir!r}: {exc}") from None


def _fit_rate(t: np.ndarray, population: np.ndarray) -> float | None:
    """Least-squares exponential rate of a population record, or None."""
    mask = population > 1e-12
    if mask.sum() < 3:
        return None
    slope = np.polyfit(t[mask], np.log(population[mask]), 1)[0]
    return float(-slope)


# ---------------------------------------------------------------------------
# subcommands: each resolves and computes, and returns its config and its
# outputs in order, a (file name, writer) pair per file and a string per
# stdout line; ``main`` writes them
# ---------------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace, params: dict) -> tuple[SystemConfig, list]:
    config = build_config(params)
    state = build_state(params)
    engine = str(params.get("engine", "dde"))
    if engine not in ("dde", "analytic", "both"):
        raise ConfigError(f"unknown engine {engine!r}")
    t_max = args.t_max * (1.0 / config.gamma)
    if engine in ("analytic", "both") and not t_max <= _BRANCH_BUDGET * config.delay:
        raise ConfigError(f"the exact series needs eta > 0 and t_max/delay <= "
                          f"{_BRANCH_BUDGET}; lower --t-max or raise --eta")
    if args.svg:
        _pyplot()

    schedule = DriveSchedule.constant(config.omega0)
    traj = None
    outputs: list = []
    if engine in ("dde", "both"):
        traj = integrate_with_drive(config, state, t_max, schedule,
                                    steps_per_delay=args.steps_per_delay)
        ts = traj.t
        outputs.append(("trajectory.csv", lambda path: traj_to_csv(traj, path)))
    if engine in ("analytic", "both"):
        if traj is None:
            steps = t_max * args.steps_per_delay / max(config.delay,
                                                       1.0 / config.gamma)
            _check_node_budget(steps)
            ts = np.linspace(0.0, t_max, max(int(round(steps)), 200) + 1)
        sol = exact_solution(config, state, float(ts[-1]))
        c_a, c_b = sol.atomic(ts)
        comments = ["giantqed amplitude trajectory (exact series)",
                    *config.summary_lines()]
        outputs.append(("trajectory_analytic.csv", lambda path: _write_trajectory(
            path, comments, ts, c_a, c_b)))
        if traj is not None:
            diff = float(np.max(np.abs(np.abs(c_a) ** 2 - traj.pop_a)))
            outputs.append(f"max_abs_diff = {diff!r}")

    if traj is not None:
        population = traj.excited_population
    else:
        population = np.abs(c_a) ** 2 + np.abs(c_b) ** 2
    rate = _fit_rate(ts, population)
    if rate is not None:
        outputs.append(f"fit_rate = {rate!r}")
    if args.svg:
        outputs.append(("trajectory.svg", lambda path: _plot_trajectory(
            ts, population, path, config)))
    return config, outputs


def _plot_trajectory(ts, population, path, config) -> None:
    plt = _pyplot()
    fig, ax = plt.subplots()
    ax.plot(ts, population, label="|c_a|^2 + |c_b|^2")
    ax.set_xlabel("t")
    ax.set_ylabel("excited population")
    ax.set_title(f"{config.topology}, eta={config.eta:g}, phi={config.phi:g}")
    ax.legend()
    fig.savefig(path, format="svg")
    plt.close(fig)


def _parse_scan(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise ConfigError(f"--scan expects start:stop:step, got {text!r}") from None
    if not (0 < lo < hi < math.inf and 0 < step < math.inf):
        raise ConfigError("--scan needs 0 < start < stop and step > 0, finite")
    intervals = (hi - lo) / step                # inf past the float range
    if not intervals + 1 <= _SCAN_POINT_BUDGET:
        raise ConfigError(f"--scan {text} asks for {intervals + 1:.3g} points, "
                          f"above the budget of {_SCAN_POINT_BUDGET:.0e}")
    n = round(intervals)
    if n < 1 or abs(intervals - n) > 1e-9 * n:
        raise ConfigError(f"--scan {text}: stop - start is {intervals:.6g} "
                          "steps; it must be a whole number of steps, at least 1")
    return lo, hi, n + 1


def cmd_decay_rates(args: argparse.Namespace, params: dict) -> tuple[SystemConfig, list]:
    topology, gamma, v_g = _topology_gamma_vg(params)
    omega0 = _parse_number("omega0", params.get("omega0", 50.0))
    lo, hi, n = _parse_scan(args.scan)

    scan = scan_decay_rates(topology, n_points=n, x_max=hi, x_min=lo,
                            omega0=omega0, gamma=gamma, v_g=v_g)
    x_peak, peak = scan.peak()
    cfg = SystemConfig(topology=topology, gamma=gamma, omega0=omega0, v_g=v_g,
                       delay=x_peak * math.pi / (omega0 * v_g))
    return cfg, [("decay_rates.csv", scan.to_csv),
                 f"peak: x = {x_peak!r}, max_re_rate = {peak!r}"]


def cmd_fdd(args: argparse.Namespace, params: dict) -> tuple[SystemConfig, list]:
    config = build_config(params)
    if config.delay == 0.0:
        raise ConfigError("fdd needs eta > 0 (finite leg spacing)")
    state = build_state(params)
    t_max = args.t_max / config.gamma
    # an integrator run at its step floor (K >= 50*eta) feeds the map; the
    # exact series agrees with it to the integrator's own error at any time
    eta = config.gamma * config.delay
    steps_per_delay = max(100, math.ceil(50 * eta))
    # the budgets before the map is built; eta sets K, so it and --t-max set
    # the run's node count, and it sets the interior grid's 3K + 1 points:
    # only those within v_g*t_max of a leg (edges included) hold field
    h = config.delay / steps_per_delay  # 0 when a tiny delay underflows
    _check_node_budget(t_max / h - GRID_END_SLACK if h else math.inf,
                       "lower --t-max or change --eta (fdd takes "
                       "max(100, ceil(50*eta)) steps per delay)")
    _check_node_budget(3 * steps_per_delay, "change --eta: fdd's interior "
                       "grid takes 3K + 1 points, K = max(100, ceil(50*eta))")
    # of the interior grid np.linspace(-edge, edge, 3K + 1), form only the
    # points within v_g*t_max of a leg and 2 more a side (no field lost to
    # rounding, zeros bound each gap), each once, by linspace's arithmetic
    edge, num = 1.5 * config.spacing, 3 * steps_per_delay + 1
    step, reach = 2.0 * edge / (num - 1), config.v_g * t_max

    def point(i: int) -> float:
        return edge if i == num - 1 else i * step - edge

    kept, top = [], 0     # legs in order, so each range starts past the last
    for x in sorted((*config.leg_positions(0), *config.leg_positions(1))):
        lo = max(bisect_left(range(num), x - reach, key=point) - 2, top)
        top = min(bisect_left(range(num), x + reach, key=point) + 3, num)
        kept.append(np.arange(lo, top))
    kept = np.concatenate(kept)
    interior = np.where(kept == num - 1, edge, kept * step - edge)
    cells = (args.nx * args.nt + interior.size) * 2 * config.n_legs * 2
    if cells > _FDD_CELL_BUDGET:
        raise ConfigError(f"the map needs {cells:.3g} cells ((nx * nt + points "
                          f"near the legs) * legs * 2), above the budget of "
                          f"{_FDD_CELL_BUDGET:.0e}; lower --nx, --nt or --eta")
    if args.svg:
        _pyplot()
    span = args.x_span if args.x_span is not None else \
        1.5 * config.spacing + config.v_g * t_max
    x_grid = np.linspace(-span, span, args.nx)
    t_grid = np.linspace(0.0, t_max, args.nt)
    traj = integrate(config, state, t_max, steps_per_delay=steps_per_delay)
    grid = compute_fdd(traj, config, state.parity, x_grid, t_grid)

    # photonic excitation (v_g/2pi) * int I dx inside |x| <= 1.5*spacing at
    # the last time, at the run's own x step v_g*h (the map's may be coarser)
    late = compute_fdd(traj, config, state.parity, interior, t_grid[-1:])
    metric = config.v_g / (2.0 * math.pi) * float(late.spatial_integral()[0])
    outputs = [("fdd.csv", grid.to_csv), f"interior_trapping = {metric!r}"]
    if args.svg:
        outputs.append(("fdd.svg", grid.to_svg))
    return config, outputs


def cmd_bic(args: argparse.Namespace, params: dict) -> tuple[SystemConfig, list]:
    config = build_config(params)
    if config.delay == 0.0:
        raise ConfigError("bic needs eta > 0 (finite leg spacing)")
    bound = bic_state(config)

    report: dict = {"topology": config.topology, "eta": config.eta,
                    "phi": config.phi, "exists": bool(bound)}
    if not bound:
        outputs: list = [f"NoBic (topology {config.topology}, phi/pi = "
                         f"{config.phi / math.pi!r})"]
    else:
        norm = field_norm(bound)
        report.update({
            "phase_class": bound.phase_class,
            "epsilon1_sq": abs(bound.epsilon1) ** 2,
            "atomic_weight": bound.atomic_weight,
            "field_weight": bound.field_weight,
            "field_norm": norm,
            "k0": bound.k0,
            "overlap_symmetric": overlap_with_initial(
                bound, InitialState.symmetric()),
            "overlap_antisymmetric": overlap_with_initial(
                bound, InitialState.antisymmetric()),
        })
        outputs = [f"BIC exists: |eps1|^2 = {report['epsilon1_sq']!r}, "
                   f"atomic weight = {report['atomic_weight']!r}, "
                   f"field weight = {report['field_weight']!r}",
                   f"field norm (closed form) = {norm!r}",
                   ("bic_profile.csv", bic_field_profile(bound).to_csv)]
    text = json.dumps(report, sort_keys=True) + "\n"
    outputs.append(("bic_report.ndjson", lambda path: _write_text(path, text)))
    return config, outputs


def cmd_detect(args: argparse.Namespace, params: dict) -> tuple[SystemConfig, list]:
    config = build_config(params)
    if config.delay == 0.0:
        raise ConfigError("detect needs eta > 0 (finite leg spacing)")
    if args.n_points > _DETECT_POINT_BUDGET:
        raise ConfigError(f"--n-points is over the budget of {_DETECT_POINT_BUDGET:.0e}")
    state = build_state(params)
    t_max = args.t_max / config.gamma

    if (args.switch_at is None) != (args.phi_after is None):
        raise ConfigError("--switch-at and --phi-after must be given together")
    schedule = DriveSchedule.constant(config.omega0)
    if args.switch_at is not None:
        t_s = args.switch_at / config.gamma
        if not 0.0 < t_s < t_max:
            raise ConfigError("--switch-at must fall inside (0, t_max)")
        omega_after = _parse_number("phi_after", args.phi_after) / config.delay
        schedule = DriveSchedule.switch_at(t_s, config.omega0, omega_after)

    traj = integrate_with_drive(config, state, t_max, schedule,
                                steps_per_delay=args.steps_per_delay)
    t_bar = np.linspace(0.0, t_max, args.n_points)
    x0 = args.x0 if args.x0 is not None else config.spacing
    record = detector_signal(traj, config, x0, t_bar)
    outputs: list = [("detector.csv", record.to_csv)]
    if args.switch_at is not None:
        released = released_energy(record, (t_s, t_max))
        pre = record.intensity[(t_bar >= 0.5 * t_s) & (t_bar <= t_s)]
        outputs += [f"released_both_directions = {2 * released!r}",
                    f"pre_switch_max_intensity = {float(pre.max(initial=0.0))!r}"]
    else:
        outputs.append(f"released_both_directions = {2 * released_energy(record)!r}")
    return config, outputs


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _positive(kind, least=0):
    """argparse type: a finite ``kind`` (int or float) above zero and not
    below ``least``."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = 0
        # float max, not inf: an int past it is out of the float range too
        if not (0 < value <= sys.float_info.max and value >= least):
            bound = f" >= {least}" if least else ""
            raise argparse.ArgumentTypeError(f"expected a positive "
                                             f"{kind.__name__}{bound}, "
                                             f"got {text!r}")
        return value
    return parse


def _add_common(sub: argparse.ArgumentParser, geometry: bool = True) -> None:
    sub.add_argument("--config", help="INI config file ([system]/[run])")
    sub.add_argument("--out", help="output directory (default '.')")
    sub.add_argument("--topology", choices=("separate", "braided"))
    sub.add_argument("--gamma", help="per-leg decay rate")
    sub.add_argument("--v-g", dest="v_g", help="group velocity")
    if geometry:
        sub.add_argument("--eta",
                         help="retardation gamma*delay (pairs with --phi)")
        sub.add_argument("--phi", help="inter-leg phase, e.g. 2pi or 3.14")
        sub.add_argument("--omega0", help="atomic frequency (pairs with --dx)")
        sub.add_argument("--dx", help="leg spacing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="giantqed",
        description="Two giant atoms coupled to a 1D waveguide: exact "
                    "non-Markovian dynamics, spectra, bound states and "
                    "emitted-field maps.")
    parser.add_argument("--version", action="version",
                        version=f"giantqed {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="amplitude dynamics")
    _add_common(sim)
    sim.add_argument("--state", help="symmetric | antisymmetric")
    sim.add_argument("--engine", help="dde | analytic | both")
    sim.add_argument("--t-max", type=_positive(float), default=10.0,
                     help="run length in units of 1/gamma (default 10)")
    sim.add_argument("--steps-per-delay", type=_positive(int), default=100)
    sim.add_argument("--svg", action="store_true")
    sim.set_defaults(func=cmd_simulate)

    scan = subs.add_parser("decay-rates", help="collective decay-rate scan")
    _add_common(scan, geometry=False)
    scan.add_argument("--omega0", help="fixed frequency of the scan (default 50)")
    scan.add_argument("--scan", default="0.005:3.0:0.005",
                      help="x = omega0*v_g*delay/pi as start:stop:step")
    scan.set_defaults(func=cmd_decay_rates)

    fd = subs.add_parser("fdd", help="emitted intensity map I(x, t)")
    _add_common(fd)
    fd.add_argument("--state", help="symmetric | antisymmetric")
    fd.add_argument("--t-max", type=_positive(float), default=8.0,
                    help="map length in units of 1/gamma (default 8)")
    fd.add_argument("--nx", type=_positive(int), default=481)
    fd.add_argument("--nt", type=_positive(int), default=121)
    fd.add_argument("--x-span", type=_positive(float),
                    help="half-width of the x grid (default: light cone)")
    fd.add_argument("--svg", action="store_true")
    fd.set_defaults(func=cmd_fdd)

    bi = subs.add_parser("bic", help="bound-state-in-the-continuum report")
    _add_common(bi)
    bi.set_defaults(func=cmd_bic)

    det = subs.add_parser("detect", help="detector signal / re-release")
    _add_common(det)
    det.add_argument("--state", help="symmetric | antisymmetric")
    det.add_argument("--x0", type=_positive(float),
                     help="detector offset past the last leg (default d)")
    det.add_argument("--t-max", type=_positive(float), default=85.0,
                     help="record length in units of 1/gamma (default 85)")
    det.add_argument("--switch-at", type=float,
                     help="drive switch time in units of 1/gamma")
    det.add_argument("--phi-after", help="inter-leg phase after the switch")
    # released_energy integrates over at least two detector times
    det.add_argument("--n-points", type=_positive(int, least=2), default=8501)
    det.add_argument("--steps-per-delay", type=_positive(int), default=100)
    det.set_defaults(func=cmd_detect)
    return parser


def main(argv=None) -> int:
    """Resolve, compute, write every output and the manifest into ``--out``
    at once, then print the stdout lines; a run that exits 2 or 3 writes
    nothing."""
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            params = resolve_params(args)
            out_dir = str(params.get("out", "."))
            # --out, or else its nearest existing ancestor, is a directory
            path = out_dir
            while path and not os.path.lexists(path):
                path = os.path.dirname(path)
            if not (out_dir and os.path.isdir(path or ".")):
                raise ConfigError(f"--out {out_dir!r}: {path!r} is not a directory")
            config, outputs = args.func(args, params)
            manifest = RunManifest(args.command, config, out_dir)
            _write_all(out_dir, path or ".", [
                *(output for output in outputs if not isinstance(output, str)),
                (f"{args.command.replace('-', '_')}_manifest.txt", manifest.write)])
        for output in outputs:
            print(output if isinstance(output, str)
                  else f"wrote {os.path.join(out_dir, output[0])}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NonConvergence, IllConditioned, FloatingPointError) as exc:
        print(f"numerical failure: {args.command}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
