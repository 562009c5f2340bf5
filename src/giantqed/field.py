"""Real-space emission patterns and detector signals.

The frequency-space photon amplitudes built in :mod:`giantqed.dde` can be
collapsed analytically: transforming back to position space turns every
mode integral into a delta function, so the field at (x, t) is a finite sum
of retarded atomic amplitudes, one per (leg, direction) pair.  The
right-moving part of leg ``x_l`` contributes ``c_m(t - (x - x_l)/v)`` on
``x >= x_l``, the left-moving part ``c_m(t + (x - x_l)/v)`` on ``x <= x_l``,
each gated to source times inside ``[0, t]`` and carrying the drive phase
of its retardation window [t - |x - x_l|/v, t].  Both directions are
summed inside a single modulus square, which is what produces the
standing-wave fringes between the legs.

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

from .model import AmplitudeRecord, ConfigError, SystemConfig, write_csv

__all__ = ["FieldGrid", "DetectorRecord", "fdd", "detector_signal",
           "released_energy"]


# ---------------------------------------------------------------------------
# amplitude sources and the retarded-leg term
# ---------------------------------------------------------------------------

def _source(source, config: SystemConfig, parity: int | None,
            times: np.ndarray) -> None:
    """Check that ``source`` is an amplitude record built for ``config``
    from a state of ``parity`` (unless None) covering all of ``times``."""
    if not isinstance(source, AmplitudeRecord):
        raise TypeError("amplitude source must be an AmplitudeRecord")
    if source.config != config:
        raise ConfigError(f"source built for {source.config}, not {config}")
    if parity is not None and source.parity != parity:
        raise ConfigError(f"source has exchange parity {source.parity}, "
                          f"not {parity:+d}")
    if not (np.all(np.isfinite(times)) and times.max() <= source.horizon):
        raise ConfigError(f"the requested times must be finite and at most "
                          f"{source.horizon!r}, the source's horizon; build "
                          "it with a longer run")


def _half_step(u: np.ndarray) -> np.ndarray:
    """Unit step with the half-value convention at the edge."""
    return np.where(u > 0, 1.0, np.where(u == 0, 0.5, 0.0))


def _retarded(source, atom: int, t, width, gate: np.ndarray) -> np.ndarray:
    """gate * c_atom(t - width) * exp(i Int_{t-width}^t omega0(s) ds) of
    ``source``, with t and width broadcast to gate's shape, evaluated where
    gate > 0 only."""
    t, width = np.broadcast_arrays(t, width)
    out = np.zeros(gate.shape, dtype=complex)
    cells = gate > 0
    if cells.any():
        t, width = t[cells], width[cells]
        out[cells] = gate[cells] * np.exp(
            1j * source.schedule.window_phase(t, width)) * source.atomic(
                t - width, atom)
    return out


# ---------------------------------------------------------------------------
# frequency-resolved real-space intensity
# ---------------------------------------------------------------------------

def _pyplot():
    """matplotlib.pyplot on the Agg backend; ConfigError without matplotlib."""
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        raise ConfigError("SVG output (--svg) requires matplotlib "
                          "(install the 'svg' extra)") from None
    return plt


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
        plt = _pyplot()
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

    ``amplitude_source`` is an amplitude record (exact series or
    trajectory) for ``config`` and ``parity`` covering every time in
    ``t_grid``; both grids must be finite.  A (leg, direction) term takes
    the width w = direction * (x - x_l)/v_g and the gate step(w) * step(t
    - w).  The returned intensity is exactly zero outside the light cone
    ``|x| <= max(leg) + v_g * t`` and on the ``t <= 0`` slices.  A v_g for
    which v_g^2 or the largest possible cell gamma*pi*(4N)^2/v_g^2 (4N
    terms, |c| <= 1) leaves the float range raises ConfigError.
    """
    if parity not in (1, -1):
        raise ConfigError("parity must be +1 or -1")
    x = np.asarray(x_grid, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    if x.ndim != 1 or t.ndim != 1 or x.size == 0 or t.size == 0:
        raise ConfigError("x_grid and t_grid must be non-empty 1-D arrays")
    if not np.all(np.isfinite(x)):
        raise ConfigError("x_grid must be finite")
    _source(amplitude_source, config, parity, t)
    v2 = config.v_g * config.v_g
    if not 0 < v2 < math.inf or math.isinf(
            config.gamma * math.pi * (4 * config.n_legs) ** 2 / v2):
        raise ConfigError(f"v_g = {config.v_g!r} puts the map's largest value "
                          "gamma*pi*(4N)^2/v_g^2 out of the float range")
    tcol = t[:, None]
    total = np.zeros((t.size, x.size), dtype=complex)
    for atom in (0, 1):
        for x_leg in config.leg_positions(atom):
            for direction in (1.0, -1.0):
                width = direction * (x - x_leg) / config.v_g
                total += _retarded(amplitude_source, atom, tcol, width,
                                   _half_step(width) * _half_step(tcol - width))
    intensity = (config.gamma * math.pi / config.v_g ** 2) * np.abs(total) ** 2
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
    """Output amplitude at a right-side detector, from an amplitude record.

    Each leg at slot distance ``n`` from the rightmost one contributes
    ``gamma * exp(i dOmega_n) * c_m(t_bar - n*delay)`` where ``dOmega_n``
    is the drive phase accumulated over the retardation window (``n*phi``
    for a constant frequency), ``fdd``'s right-moving term with the lag as
    width.  The sum carries an overall ``2/sqrt(gamma v_g)``: ``fdd`` at
    (x_last + x0, t_bar + x0/v_g) is pi/(4 v_g) |amplitude|^2.  The signal
    vanishes identically for ``t_bar < 0``.  ConfigError if the largest
    possible |amplitude|^2, 16 N^2 gamma/v_g (|c| <= 1), overflows.
    """
    if not 0 < x0 < math.inf:
        raise ConfigError("x0 must be positive and finite (detector beyond "
                          "the array)")
    tb = np.asarray(t_bar_grid, dtype=float)
    if tb.ndim != 1 or tb.size == 0:
        raise ConfigError("t_bar_grid must be a non-empty 1-D array")
    _source(amplitude_source, config, None, tb)
    if math.isinf(16 * config.n_legs ** 2 * config.gamma / config.v_g):
        raise ConfigError(f"v_g = {config.v_g!r} puts the record's largest "
                          "|amplitude|^2 16 N^2 gamma/v_g out of the float range")

    last = 2 * config.n_legs - 1
    amp = np.zeros(tb.size, dtype=complex)
    for atom in (0, 1):
        for slot in config.leg_slots(atom):
            # the detector is strictly right of every leg: no gate on the lag
            lag = (last - slot) * config.spacing / config.v_g
            amp += config.gamma * _retarded(amplitude_source, atom, tb, lag,
                                            _half_step(tb - lag))
    amp *= 2.0 / math.sqrt(config.gamma * config.v_g)
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
