"""Real-space emission patterns and detector signals.

The frequency-space photon amplitudes built in :mod:`giantqed.dde` can be
collapsed analytically: transforming back to position space turns every
mode integral into a delta function, so the field at (x, t) is a finite sum
of retarded atomic amplitudes, one per (leg, direction) pair.  The
right-moving part of leg ``x_l`` contributes ``c_m(t - (x - x_l)/v)`` on
``x >= x_l``, the left-moving part ``c_m(t + (x - x_l)/v)`` on ``x <= x_l``,
each gated to source times inside ``[0, t]`` and carrying the accumulated
drive phase of its own retarded argument.  Both directions are summed
inside a single modulus square, which is what produces the standing-wave
fringes between the legs.

The emitted intensity is reported as

    I(x, t) = (gamma * pi / v**2) * |sum over legs and directions|^2

normalised so that ``(v / 2 pi) * integral I dx`` equals the photonic
excitation fraction at time t.  Step edges on the light cones use the
half-value convention: a retarded argument sitting exactly on a window
boundary counts with weight 1/2.

``detector_signal`` evaluates the right-moving field past the last leg as
a function of the retarded detector time and ``released_energy`` converts
its time integral back to an excitation count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import ExpPolySolution
from .dde import AmplitudeTrajectory, DriveSchedule
from .model import ConfigError, SystemConfig, write_csv

__all__ = ["FieldGrid", "DetectorRecord", "fdd", "detector_signal",
           "released_energy"]


# ---------------------------------------------------------------------------
# amplitude sources
# ---------------------------------------------------------------------------

class _Source:
    """Uniform view of a branch series or an integrated trajectory.

    Exposes each atom's amplitude on arbitrary (already windowed) time
    arrays, the drive schedule, and the horizon up to which queries are
    legal.
    """

    def __init__(self, source, config: SystemConfig, parity: int | None):
        if isinstance(source, ExpPolySolution):
            if abs(source.delay - config.delay) > 1e-12 * max(1.0, config.delay):
                raise ConfigError("series was built for a different delay")
            if parity is not None and source.parity != parity:
                raise ConfigError(
                    f"series has parity {source.parity:+d}, not {parity:+d}")
            self._kind = "series"
            # last legal query time (evaluate refuses the horizon itself)
            self.horizon = source.horizon - 2e-12 * max(source.delay, 1.0)
            self.schedule = DriveSchedule.constant(config.omega0)
        elif isinstance(source, AmplitudeTrajectory):
            for field in ("topology", "gamma", "delay", "n_legs", "v_g"):
                if getattr(source.config, field) != getattr(config, field):
                    raise ConfigError(f"trajectory {field} does not match config")
            if parity is not None:
                ca0, cb0 = complex(source.c_a[0]), complex(source.c_b[0])
                if abs(cb0 - parity * ca0) > 1e-9 * max(1.0, abs(ca0)):
                    raise ConfigError(
                        "trajectory initial state does not have the "
                        f"requested exchange parity {parity:+d}")
            self._kind = "trajectory"
            self.horizon = source.horizon
            self.schedule = source.schedule
        else:
            raise TypeError("amplitude source must be an ExpPolySolution "
                            "or an AmplitudeTrajectory")
        self._source = source

    def amplitude(self, atom: int, t: np.ndarray) -> np.ndarray:
        """Amplitude of one atom (0 for a, 1 for b) at the times ``t``."""
        if self._kind == "series":
            return self._source.atomic(t)[atom]
        return self._source.interpolate(t, atom)


def _half_step(u: np.ndarray) -> np.ndarray:
    """Unit step with the half-value convention at the edge."""
    return np.where(u > 0, 1.0, np.where(u == 0, 0.5, 0.0))


def _require_horizon(src: _Source, needed: float, what: str) -> None:
    if needed > src.horizon:
        raise ConfigError(
            f"{what} needs amplitudes up to t = {needed!r} but the source "
            f"only covers t <= {src.horizon!r}; build it with a longer run")


# ---------------------------------------------------------------------------
# frequency-resolved real-space intensity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldGrid:
    """Emitted intensity ``I(x, t)`` sampled on a rectangular grid.

    ``intensity[i, j]`` belongs to time ``t[i]`` and position ``x[j]``.
    """

    x: np.ndarray
    t: np.ndarray
    intensity: np.ndarray
    parity: int
    config: SystemConfig

    def spatial_integral(self) -> np.ndarray:
        """Trapezoid of I over x at every stored time.

        ``(v_g / 2 pi) * spatial_integral()`` estimates the photonic
        excitation fraction, provided the grid covers the emitted wave.
        """
        return np.trapezoid(self.intensity, self.x, axis=1)

    def to_csv(self, path) -> None:
        """Long-format CSV (x, t, intensity) with a config-echo header."""
        write_csv(path,
                  ["giantqed emitted field map", *self.config.summary_lines(),
                   f"parity = {self.parity:+d}"],
                  "x,t,intensity",
                  [np.tile(self.x, self.t.size),
                   np.repeat(self.t, self.x.size), self.intensity.ravel()])

    def to_svg(self, path) -> None:
        """Rasterised heat map of I(x, t); needs matplotlib."""
        try:
            import matplotlib
            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError as exc:  # pragma: no cover - optional extra
            raise RuntimeError(
                "SVG export requires matplotlib (install the 'svg' extra)"
            ) from exc
        fig, ax = plt.subplots(figsize=(7.0, 4.5))
        mesh = ax.pcolormesh(self.x, self.t, self.intensity,
                             shading="auto", rasterized=True)
        fig.colorbar(mesh, ax=ax, label="intensity")
        ax.set_xlabel("position x")
        ax.set_ylabel("time t")
        ax.set_title(f"{self.config.topology} emission, "
                     f"parity {self.parity:+d}")
        fig.savefig(path, format="svg")
        plt.close(fig)


def fdd(amplitude_source, config: SystemConfig, parity: int,
        x_grid, t_grid) -> FieldGrid:
    """Frequency-resolved emitted intensity collapsed to real space.

    ``amplitude_source`` is either an exact branch series or an integrated
    trajectory for a parity eigenstate; it must cover every time in
    ``t_grid``.  The returned intensity is exactly zero outside the light
    cone ``|x| <= max(leg) + v_g * t`` and on the ``t <= 0`` slices.
    """
    if parity not in (1, -1):
        raise ConfigError("parity must be +1 or -1")
    x = np.asarray(x_grid, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    if x.ndim != 1 or t.ndim != 1 or x.size == 0 or t.size == 0:
        raise ConfigError("x_grid and t_grid must be non-empty 1-D arrays")
    src = _Source(amplitude_source, config, parity)
    _require_horizon(src, float(t.max()), "the requested time grid")

    v = np.float64(config.v_g)      # so v**2 out of float range follows errstate
    tcol = t[:, None]
    total = np.zeros((t.size, x.size), dtype=complex)
    for atom in (0, 1):
        for x_leg in config.leg_positions(atom):
            for direction in (1.0, -1.0):
                tau = tcol - direction * (x[None, :] - x_leg) / v
                window = _half_step(tau) * _half_step(tcol - tau)
                mask = window > 0
                if not mask.any():
                    continue
                safe = np.where(mask, tau, 0.0)
                c = src.amplitude(atom, safe.ravel()).reshape(tau.shape)
                # drive phase Omega(tau) accumulated since t = 0
                phase = np.exp(-1j * src.schedule.window_phase(safe, safe))
                total += window * c * phase
    intensity = (config.gamma * math.pi / v ** 2) * np.abs(total) ** 2
    intensity[t <= 0, :] = 0.0
    return FieldGrid(x=x, t=t, intensity=intensity, parity=parity,
                     config=config)


# ---------------------------------------------------------------------------
# detector past the last leg
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectorRecord:
    """Right-moving output amplitude at a point beyond the rightmost leg.

    ``t_bar`` is detector time with the propagation offset already removed
    (``t_bar = t - x0 / v_g`` with ``x0`` measured from the rightmost leg),
    so the record is independent of where exactly the detector sits.  The
    global carrier phase is dropped.
    """

    t_bar: np.ndarray
    amplitude: np.ndarray
    x0: float
    config: SystemConfig

    @property
    def intensity(self) -> np.ndarray:
        return np.abs(self.amplitude) ** 2

    def to_csv(self, path) -> None:
        write_csv(path,
                  ["giantqed detector record", *self.config.summary_lines(),
                   f"x0_beyond_last_leg = {float(self.x0)!r}"],
                  "t_bar,re_amp,im_amp,intensity",
                  [self.t_bar, self.amplitude.real, self.amplitude.imag,
                   self.intensity])


def detector_signal(amplitude_source, config: SystemConfig, x0: float,
                    t_bar_grid) -> DetectorRecord:
    """Output amplitude seen by a right-side detector.

    Each leg at slot distance ``n`` from the rightmost one contributes
    ``gamma * exp(i dOmega_n) * c_m(t_bar - n*delay)`` where ``dOmega_n``
    is the drive phase accumulated over the retardation window (``n*phi``
    for a constant frequency); the sum carries an overall ``2/sqrt(gamma
    v_g)``.  The signal vanishes identically for ``t_bar < 0``.
    """
    if not 0 < x0 < math.inf:
        raise ConfigError("x0 must be positive and finite (detector beyond "
                          "the array)")
    tb = np.asarray(t_bar_grid, dtype=float)
    if tb.ndim != 1 or tb.size == 0:
        raise ConfigError("t_bar_grid must be a non-empty 1-D array")
    src = _Source(amplitude_source, config, None)
    _require_horizon(src, float(tb.max()), "the requested detector window")

    d = config.spacing
    last = 2 * config.n_legs - 1
    amp = np.zeros(tb.size, dtype=complex)
    for atom in (0, 1):
        for slot in config.leg_slots(atom):
            lag = (last - slot) * d / config.v_g
            tau = tb - lag
            gate = _half_step(tau)
            mask = gate > 0
            if not mask.any():
                continue
            safe = np.where(mask, tau, 0.0)
            c = src.amplitude(atom, safe)
            window = src.schedule.window_phase(tb, lag)
            amp += gate * config.gamma * np.exp(1j * window) * c
    amp *= 2.0 / math.sqrt(config.gamma * config.v_g)
    amp[tb < 0] = 0.0
    return DetectorRecord(t_bar=tb, amplitude=amp, x0=float(x0),
                          config=config)


def released_energy(record: DetectorRecord,
                    window: tuple[float, float] | None = None) -> float:
    """Excitation count crossing the detector during ``window``.

    The detector amplitude is normalised so that the rightward excitation
    flux equals ``v_g * |amplitude|**2 / 8`` (the amplitude convention is a
    factor ``2*sqrt(2)`` above the waveguide wavefunction); this integrates
    that flux with the trapezoid rule, interpolating the window edges.
    """
    tb, inten = record.t_bar, record.intensity
    if window is None:
        lo, hi = float(tb[0]), float(tb[-1])
    else:
        lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ConfigError("window must satisfy lo < hi")
    if lo < tb[0] - 1e-12 or hi > tb[-1] + 1e-12:
        raise ConfigError("window exceeds the recorded time range")
    inner = (tb > lo) & (tb < hi)
    ts = np.concatenate(([lo], tb[inner], [hi]))
    ys = np.concatenate(([np.interp(lo, tb, inten)], inten[inner],
                         [np.interp(hi, tb, inten)]))
    return float(record.config.v_g / 8.0 * np.trapezoid(ys, ts))
