"""The benchmark's three workloads: tasks, seeded inputs and output checks.

A task is one job a user runs.  ``run`` is the timed call into giantqed;
``check`` runs afterwards, outside the timed region, and returns the
output digest plus a list of failed checks (never raises for a wrong
answer).  Every giantqed function is looked up through its module at call
time, so the tracer's patched bindings are the ones used.

Workloads (see README.md for the rationale and the layer map):

cli            giantqed.cli.main(argv) in-process: the five README commands
               plus ``fdd-late``; the seed sets their order within a pass.
dark-dynamics  late-time trapped dynamics through the method-of-steps
               integrator; the seed sets the late fdd time in [50, 70] and
               the detector offset x0 in [1, 3].
mode-sum       the frequency-space mode sum ``field_amplitudes`` on the
               criterion-8 grid; the seed sets four snapshot times in
               [0.5, 5.0) (the fifth is 5.0, so the sweep length and the
               work do not depend on the seed) and the 20 001-point
               irregular subset.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import re
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

import giantqed
from giantqed import analytic, bic, cli, dde, field, model

WORKLOADS = ("cli", "dark-dynamics", "mode-sum")

#: Every task's latency metric, per workload, in report order.
TASK_METRICS = {
    "cli": ("cli.simulate_s", "cli.decay-rates_s", "cli.fdd_s", "cli.bic_s",
            "cli.detect_s", "cli.fdd-late_s"),
    "dark-dynamics": ("dark.static_s", "dark.switch_s", "dark.stiff_s"),
    "mode-sum": ("modes.uniform_s", "modes.nonuniform_s"),
}

#: Checks that fail at the seed because of a documented program defect.
#: They still run and count in ``fail_frac``; they do not clear ``correct``.
KNOWN_DEFECTS = {
    "cli.fdd-late_s": "fdd builds the map from the branch series, which loses "
                    "all precision for braided antisymmetric runs past "
                    "t ~ 30 (ROADMAP open item 2)",
}


@dataclass
class Task:
    name: str                              # metric name, e.g. "cli.bic_s"
    run: Callable[[], object]
    check: Callable[[object], tuple[str, list[str]]]
    prepare: Callable[[], None] = lambda: None    # untimed, before run


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else
                 np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray)
                 else repr(p).encode())
    return h.hexdigest()[:16]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _expect(failures: list[str], ok: bool, text: str) -> None:
    if not ok:
        failures.append(text)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

README_ARGS = {
    "simulate": "simulate --topology braided --eta 0.15 --phi 0.5pi "
                "--state antisymmetric --engine both --t-max 8",
    "decay-rates": "decay-rates --topology braided --omega0 50 "
                   "--scan 0.005:3.0:0.005",
    "fdd": "fdd --topology separate --eta 0.2 --phi 2pi "
           "--state antisymmetric --t-max 8",
    "bic": "bic --topology braided --eta 0.2 --phi 2pi",
    "detect": "detect --topology separate --eta 0.2 --phi 2pi "
              "--state antisymmetric --t-max 85 --switch-at 20 "
              "--phi-after 2.5pi",
    "fdd-late": "fdd --topology braided --eta 0.2 --phi 2pi "
                "--state antisymmetric --t-max 40 --nx 241 --nt 61",
}

_PRINTED = re.compile(r"([A-Za-z_]+) = ([-+0-9.eE]+|nan|inf)")


def _printed(stdout: str) -> dict[str, float]:
    return {k: float(v) for k, v in _PRINTED.findall(stdout)}


def _csv_column_max(path: str, column: int) -> float:
    with open(path) as fh:
        rows = [line for line in fh if not line.startswith("#")][1:]
    return float(np.loadtxt(rows, delimiter=",", usecols=column).max())


@functools.cache
def _fdd_reference_peak(topology: str, t_max: float, nx: int, nt: int) -> float:
    """Peak of the same map built from an integrator trajectory."""
    cfg = model.SystemConfig.from_phase(topology, eta=0.2, phi=2 * math.pi)
    traj = dde.integrate(cfg, model.InitialState.antisymmetric(),
                         t_max + cfg.delay)
    span = 1.5 * cfg.spacing + cfg.v_g * t_max
    grid = field.fdd(traj, cfg, -1, np.linspace(-span, span, nx),
                     np.linspace(0.0, t_max, nt))
    return float(grid.intensity.max())


def _trapped(traj, cfg, t_at: float) -> float:
    """Atomic population plus interior field excitation at ``t_at``."""
    edge = 1.5 * cfg.spacing
    grid = field.fdd(traj, cfg, -1, np.linspace(-edge, edge, 1501),
                     np.array([t_at]))
    atomic = float(traj.excited_population[traj.nearest_index(t_at)])
    return atomic + cfg.v_g / (2 * math.pi) * float(grid.spatial_integral()[0])


def _switch_run(t_s: float, phi_after: float):
    """Criterion-10 system and its drive switch from phi = 2pi to phi_after."""
    cfg = model.SystemConfig.from_phase("separate", eta=0.2, phi=2 * math.pi)
    schedule = dde.DriveSchedule.switch_at(t_s, cfg.omega0,
                                           phi_after / cfg.delay)
    return cfg, schedule


@functools.cache
def _detect_drop() -> float:
    """Trapped excitation lost between the switch (t=20) and t=85."""
    cfg, schedule = _switch_run(20.0, 2.5 * math.pi)
    traj = dde.integrate_with_drive(cfg, model.InitialState.antisymmetric(),
                                    85.0 + cfg.delay, schedule)
    return _trapped(traj, cfg, 20.0) - _trapped(traj, cfg, 85.0)


def _cli_check(name: str):
    def check(out) -> tuple[str, list[str]]:
        rc, stdout, out_dir = out
        files = sorted(os.listdir(out_dir))
        blobs = []
        for f in files:
            with open(os.path.join(out_dir, f), "rb") as fh:
                blobs.append(fh.read())
        digest = _digest(rc, stdout, *files, *blobs)
        fails: list[str] = []
        _expect(fails, rc == 0, f"exit code {rc}")
        if rc != 0:
            return digest, fails
        val = _printed(stdout)
        if name == "simulate":
            diff = val.get("max_abs_diff", math.inf)
            _expect(fails, diff < 1e-6,
                    f"max_abs_diff = {diff:.3e} (criterion 1: < 1e-6)")
        elif name == "decay-rates":
            peak = val.get("max_re_rate", math.nan)
            _expect(fails, _rel(peak, 17.26) < 0.05,
                    f"peak rate {peak:.4f} (criterion 6: 17.26 +/- 5%)")
        elif name == "bic":
            report = json.loads(blobs[files.index("bic_report.ndjson")])
            weight = report.get("atomic_weight", math.nan)
            _expect(fails, report.get("exists") is True and
                    abs(weight - 1 / 1.2) < 1e-12,
                    f"atomic weight {weight!r} (1/(1+eta) to 1e-12)")
        elif name == "detect":
            released = val.get("released_both_directions", math.nan)
            drop = _detect_drop()
            _expect(fails, abs(released - drop) < 0.05 * drop,
                    f"released {released:.6f} vs trapped drop {drop:.6f} "
                    "(criterion 10: within 5%)")
            quiet = val.get("pre_switch_max_intensity", math.inf)
            _expect(fails, quiet < 1e-6,
                    f"pre-switch intensity {quiet:.1e} (< 1e-6)")
        else:                                            # fdd, fdd-late
            argv = README_ARGS[name].split()
            opt = {k: argv[argv.index(k) + 1] for k in ("--t-max", "--nx", "--nt")
                   if k in argv}
            ref = _fdd_reference_peak(argv[argv.index("--topology") + 1],
                                      float(opt["--t-max"]),
                                      int(opt.get("--nx", 481)),
                                      int(opt.get("--nt", 121)))
            peak = _csv_column_max(os.path.join(out_dir, "fdd.csv"), 2)
            _expect(fails, _rel(peak, ref) < 1e-3,
                    f"fdd peak {peak:.6g} vs trajectory-fed {ref:.6g} "
                    "(relative 1e-3)")
        return digest, fails
    return check


def _cli_tasks(rng: np.random.Generator, work_dir: str) -> list[Task]:
    cli.build_parser()
    tasks = []
    for i in rng.permutation(len(README_ARGS)):
        name = list(README_ARGS)[i]
        out_dir = name                       # relative to the work dir
        argv = README_ARGS[name].split() + ["--out", out_dir]

        def run(argv=argv, out_dir=out_dir):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = giantqed.cli.main(argv)
            return rc, buf.getvalue(), out_dir
        # each run writes into a new directory, as a first run does; this
        # also keeps ext4's flush-on-truncate of rewritten files out of it
        def prepare(path=os.path.join(work_dir, out_dir)):
            shutil.rmtree(path, ignore_errors=True)
        tasks.append(Task(f"cli.{name}_s", run, _cli_check(name), prepare))
    return tasks


# ---------------------------------------------------------------------------
# dark-dynamics
# ---------------------------------------------------------------------------

def _dark_tasks(rng: np.random.Generator) -> list[Task]:
    t_late = float(rng.uniform(50.0, 70.0))
    x0 = float(rng.uniform(1.0, 3.0))
    anti = model.InitialState.antisymmetric()
    configs = {top: model.SystemConfig.from_phase(top, eta=0.2, phi=2 * math.pi)
               for top in ("separate", "braided")}

    def static():
        out = {}
        for top, cfg in configs.items():
            traj = dde.integrate(cfg, anti, t_max=80.0, steps_per_delay=100)
            edge = 1.5 * cfg.spacing
            t = np.array([t_late])
            inner = field.fdd(traj, cfg, -1, np.linspace(-edge, edge, 801), t)
            outer = field.fdd(traj, cfg, -1,
                              np.linspace(edge + 1.0, edge + 21.0, 801), t)
            out[top] = (cfg, traj, inner, outer)
        return out

    def check_static(out):
        fails: list[str] = []
        parts = []
        expected = {"separate": 0.390625, "braided": 25.0 / 36.0}
        for top, (cfg, traj, inner, outer) in out.items():
            parts += [traj.c_a, traj.c_b, inner.intensity, outer.intensity]
            pop = float(traj.excited_population[-1])
            bound = bic.bic_state(cfg)
            survive = bic.overlap_with_initial(bound, anti) * bound.atomic_weight
            _expect(fails, abs(pop - expected[top]) < 1e-3 and
                    abs(pop - survive) < 1e-3,
                    f"{top}: pop(80) = {pop:.6f} (criterion 4: "
                    f"{expected[top]:.6f} and {survive:.6f} within 1e-3)")
            ratio = outer.intensity.max() / inner.intensity.max()
            _expect(fails, ratio < 1e-4,
                    f"{top}: exterior/interior = {ratio:.1e} at t = "
                    f"{t_late:.3f} (criterion 9: < 1e-4)")
            edge = 1.5 * cfg.spacing
            x_far = np.linspace(edge + cfg.v_g * cfg.delay, edge + 50.0, 501)
            cone = field.fdd(traj, cfg, -1, x_far,
                             np.array([0.8 * cfg.delay])).intensity.max()
            _expect(fails, cone <= 1e-12,
                    f"{top}: outside-cone intensity {cone:.1e} (<= 1e-12)")
        return _digest(*parts), fails

    t_s, t_end = 20.0, 85.0
    cfg_sw, schedule = _switch_run(t_s, 2.5 * math.pi)
    t_bar = np.linspace(0.0, t_end - x0 / cfg_sw.v_g - 1.0, 8001)

    def switch():
        traj = dde.integrate_with_drive(cfg_sw, anti, t_end, schedule,
                                        steps_per_delay=100)
        record = field.detector_signal(traj, cfg_sw, x0, t_bar)
        released = 2.0 * field.released_energy(record, (t_s, float(t_bar[-1])))
        return traj, record, released

    def check_switch(out):
        traj, record, released = out
        fails: list[str] = []
        drop = _trapped(traj, cfg_sw, t_s) - _trapped(traj, cfg_sw, float(t_bar[-1]))
        _expect(fails, abs(released - drop) < 0.05 * drop,
                f"released {released:.6f} vs trapped drop {drop:.6f} "
                "(criterion 10: within 5%)")
        pre = record.intensity[(t_bar >= 10.0) & (t_bar <= t_s)]
        _expect(fails, float(pre.max()) < 1e-6,
                f"pre-switch intensity {float(pre.max()):.1e} (< 1e-6)")
        return _digest(traj.c_a, traj.c_b, record.amplitude, released), fails

    cfg_st = model.SystemConfig.from_phase("braided", eta=20.0, phi=0.3 * math.pi)
    sym = model.InitialState.symmetric()

    def stiff():
        return dde.integrate(cfg_st, sym, t_max=400.0, steps_per_delay=1000)

    def check_stiff(traj):
        sol = analytic.exact_solution(cfg_st, sym, t_max=400.0 * (1 + 1e-9))
        c_a, c_b = sol.atomic(traj.t)
        diff = max(float(np.max(np.abs(np.abs(c_a) ** 2 - traj.pop_a))),
                   float(np.max(np.abs(np.abs(c_b) ** 2 - traj.pop_b))))
        fails: list[str] = []
        _expect(fails, diff < 1e-6,
                f"series vs integrator populations differ by {diff:.1e} (< 1e-6)")
        return _digest(traj.c_a, traj.c_b), fails

    return [Task("dark.static_s", static, check_static),
            Task("dark.switch_s", switch, check_switch),
            Task("dark.stiff_s", stiff, check_stiff)]


# ---------------------------------------------------------------------------
# mode-sum
# ---------------------------------------------------------------------------

def _mode_tasks(rng: np.random.Generator) -> list[Task]:
    times = np.append(np.sort(rng.uniform(0.5, 5.0, 4)), 5.0)
    cfg = model.SystemConfig.from_phase("separate", eta=0.2, phi=0.9 * math.pi)
    sym = model.InitialState.symmetric()
    grid = dde.frequency_grid(cfg, half_width=6000.0, n_points=80001)
    subset = np.sort(rng.choice(grid.size, 20001, replace=False))
    sub_grid = grid[subset]
    shared: dict[str, tuple] = {}

    def amplitudes(omega):
        traj = dde.integrate(cfg, sym, t_max=5.2, steps_per_delay=160)
        return traj, dde.field_amplitudes(traj, omega, times)

    def uniform():
        return amplitudes(grid)

    def check_uniform(out):
        traj, (phi_r, phi_l) = out
        shared["uniform"] = (phi_r, phi_l)
        fails: list[str] = []
        for k, t in enumerate(times):
            photons = np.trapezoid(np.abs(phi_r[k]) ** 2 + np.abs(phi_l[k]) ** 2,
                                   grid)
            i = traj.nearest_index(float(t))
            deficit = abs(float(traj.pop_a[i] + traj.pop_b[i] + photons) - 1.0)
            _expect(fails, deficit < 1e-3,
                    f"excitation deficit {deficit:.2e} at t = {t:.3f} "
                    "(criterion 8: < 1e-3)")
        return _digest(phi_r, phi_l), fails

    def nonuniform():
        return amplitudes(sub_grid)

    def check_nonuniform(out):
        _, (phi_r, phi_l) = out
        fails: list[str] = []
        ref = shared.get("uniform")
        if ref is None:
            fails.append("no uniform result to compare with")
        else:
            worst = 0.0
            for got, full in zip((phi_r, phi_l), ref):
                want = full[:, subset]
                worst = max(worst, float(np.max(np.abs(got - want))
                                         / np.max(np.abs(want))))
            _expect(fails, worst < 1e-6,
                    f"irregular-grid amplitudes differ from the uniform ones "
                    f"by {worst:.1e} relative (< 1e-6)")
        return _digest(phi_r, phi_l), fails

    return [Task("modes.uniform_s", uniform, check_uniform),
            Task("modes.nonuniform_s", nonuniform, check_nonuniform)]


def build(workload: str, seed: int, work_dir: str) -> list[Task]:
    """The workload's task list for one pass, with inputs made from ``seed``."""
    rng = np.random.default_rng(seed)
    if workload == "cli":
        tasks = _cli_tasks(rng, work_dir)
    elif workload == "dark-dynamics":
        tasks = _dark_tasks(rng)
    elif workload == "mode-sum":
        tasks = _mode_tasks(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if sorted(t.name for t in tasks) != sorted(TASK_METRICS[workload]):
        raise ValueError(f"{workload} tasks do not match TASK_METRICS")
    return tasks
