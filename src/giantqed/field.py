"""The emitted field: frequency-space photon amplitudes, real-space
emission patterns and detector signals.

``field_amplitudes`` builds the right- and left-moving photon amplitudes
phi_R, phi_L(omega, t) of an integrator run by a Filon quadrature of the
mode integral, with coupling g0 = sqrt(gamma/(4 pi)) and leg factors
exp(-+i omega x/v_g).  Per frequency it takes one complex exponential,
exp(i omega h), whose powers give every phase, the leg factors included
(two exponentials for an odd number of steps per delay).  Its pass over
the frequencies runs on the W CPUs the process may use, in W times a
whole number of equal blocks of at most 8192 frequencies, with the same
bits on any number of them.
``excitation_balance`` adds their norm to the atoms'.
The same amplitudes can be collapsed analytically: transforming back to
position space turns every mode integral into a delta function, so the
field at (x, t) is a finite sum of retarded atomic amplitudes, one per
(leg, direction) pair.  The right-moving part of leg ``x_l`` contributes
``c_m(t - (x - x_l)/v)`` on ``x >= x_l``, the left-moving part ``c_m(t +
(x - x_l)/v)`` on ``x <= x_l``, each gated to source times inside ``[0,
t]`` and carrying the drive phase of its retardation window [t - |x -
x_l|/v, t].  Both directions are summed inside a single modulus square,
which is what produces the standing-wave fringes between the legs.

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

import contextvars
import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import (GRID_END_SLACK, AmplitudeRecord, ConfigError, SystemConfig,
                    write_csv)

if TYPE_CHECKING:
    from .dde import AmplitudeTrajectory

__all__ = ["FieldGrid", "DetectorRecord", "fdd", "detector_signal",
           "released_energy", "frequency_grid", "field_amplitudes",
           "excitation_balance"]


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
    terms, |c| <= 1) leaves the float range raises ConfigError, as does a
    drive that breaks ``DriveSchedule.check_phase`` at the latest time
    (naming omega0).
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
    amplitude_source.schedule.check_phase(t.max(), "omega0")
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
                                   np.heaviside(width, 0.5)
                                   * np.heaviside(tcol - width, 0.5))
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
                                            np.heaviside(tb - lag, 0.5))
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


# ---------------------------------------------------------------------------
# frequency-space photon amplitudes
# ---------------------------------------------------------------------------

def frequency_grid(config: SystemConfig, half_width: float | None = None,
                   n_points: int = 4001) -> np.ndarray:
    """Uniform grid centred on omega0; default half-width 40/delay.

    The model linearises the dispersion around omega0, so the window is
    allowed to extend below zero frequency for narrow-band configs.
    """
    if half_width is None:
        if config.delay <= 0:
            raise ConfigError("default frequency window needs delay > 0")
        half_width = 40.0 / config.delay
    return np.linspace(config.omega0 - half_width, config.omega0 + half_width,
                       n_points)


def _filon_terms(theta, e):
    """Endpoint weights (w0, w1) of Int_0^1 f(u) exp(i theta u) du = w0*f(0)
    + w1*f(1) for linear f, given e = exp(i theta).  The closed forms cancel
    O(theta^2) (0/0 at 0), so |theta| < 0.5 takes their Taylor series: both
    are good to 1.4e-15 relative for 1e-8 <= |theta| <= 30, e to a ulp.
    """
    small = np.abs(theta) < 0.5
    th = np.where(small, 1.0, theta)
    w1 = (e * (1.0 - 1j * th) - 1.0) / th ** 2
    w0 = (e - 1.0) / (1j * th) - w1
    if small.any():
        it, s0, s1 = 1j * theta[small], 0.0, 0.0
        for k in range(18, -1, -1):   # Horner, to (i theta)^18
            s0 = s0 * it + 1.0 / math.factorial(k + 2)
            s1 = s1 * it + 1.0 / (math.factorial(k) * (k + 2))
        w0[small], w1[small] = s0, s1
    return w0, w1


# width in grid points and shape of the "exponential of semicircle" kernel
# exp(beta (sqrt(1 - z^2) - 1)): about 12 digits at 2x oversampling
# (Barnett, Magland & af Klinteberg, SIAM J. Sci. Comput. 41, C479 (2019))
_NUFFT_WIDTH = 13
_NUFFT_BETA = 2.30 * _NUFFT_WIDTH

#: Most frequencies per block of the mode sum's omega pass, one worker's
#: unit of work: the powers of z, Filon weights, leg factors and
#: accumulation run on a whole block.  W workers split the grid into W
#: times a whole number of equal blocks.
_OMEGA_BLOCK = 8192

#: Frequencies per sub-block of a block's window gather and einsum: its
#: spread indices, kernel weights and gathered windows stay in cache.
_WINDOW_BLOCK = 1024

#: Most values one group of node rows may hold, in the stacked NUFFT grid
#: (rows x oversampled length) and in one worker's gathered kernel windows
#: (rows x width x sub-block); rows past it go in further groups, each
#: with its own omega pass.  A group holds at least one (snapshot,
#: segment) row.  It sizes the groups only: each worker holds its own
#: windows, so their memory grows with the worker count, as that of
#: every other per-worker array does.
_GRID_CAP = 1 << 20


def _kernel(z: np.ndarray) -> np.ndarray:
    """The spreading kernel exp(beta (sqrt(1 - z^2) - 1)), overwriting z."""
    z *= z
    np.sqrt(np.maximum(np.subtract(1.0, z, out=z), 0.0, out=z), out=z)
    z -= 1.0
    return np.exp(np.multiply(z, _NUFFT_BETA, out=z), out=z)


@functools.cache
def _deconvolution_nodes() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Positive 4w-point Gauss-Legendre nodes, 2 x weight x (even) kernel."""
    z, zw = np.polynomial.legendre.leggauss(4 * _NUFFT_WIDTH)
    return tuple(z[z > 0]), tuple(2.0 * zw[z > 0] * _kernel(z[z > 0]))


def _grid_size(n: int) -> int:
    """Oversampled NUFFT grid length for n nodes: a power of two >= 2n."""
    return 1 << (2 * n - 1).bit_length()


def _nufft_sums(rows: np.ndarray, ranges):
    """Node sums sum_{j=a}^{b} rows[:, j] exp(i j x) over node ranges.

    With c = n//2 for n nodes, the sum over a range is the trigonometric
    polynomial exp(i c x) sum_j rows_j exp(i (j - c) x), so one type-2
    nonuniform FFT evaluates it at any x (Dutt & Rokhlin, SIAM J. Sci.
    Comput. 14, 1368 (1993)).  Each range (a, b) puts its coefficients,
    divided by the kernel's transform (on the cached positive Gauss nodes),
    in its own rows of a stacked grid of M >= 2n points; one inverse FFT
    spreads them all.  The returned ``sums_at(x, centre)``, x in [0, 2 pi)
    and centre = exp(i c x), interpolates w kernel-weighted grid values per
    x, a sub-block of ``_WINDOW_BLOCK`` at a time, into shape
    (len(ranges), len(rows), len(x)).
    """
    fft = np.fft
    w = _NUFFT_WIDTH
    n_rows, n = rows.shape
    c = n // 2
    size = _grid_size(n)
    # deconvolution 2 pi/(M phi_hat(m)) for the kernel spread over w grid
    # points, = 2/(w I(m)) with I(m) = 2 Int_0^1 psi(z) cos(pi w m z/M) dz
    z, zw = _deconvolution_nodes()
    ft = np.cos(np.outer(np.arange(c + 1) * (np.pi * w / size), z)) @ zw
    modes = np.arange(n) - c
    coeffs = rows * (2.0 / (w * ft[np.abs(modes)]))
    slot = modes % size
    stacked = np.zeros((len(ranges), n_rows, size), dtype=complex)
    for grid, (a, b) in zip(stacked, ranges):
        grid[:, slot[a:b + 1]] = coeffs[:, a:b + 1]
    spread = stacked.reshape(-1, size)
    fft.ifft(spread, axis=1, norm="forward", out=spread)
    # grid points as rows of real and imaginary parts, extended
    # periodically so that the w points of a frequency never wrap: window
    # k is points k - w//2 .. k - w//2 + w - 1, one contiguous run
    ext = spread.T.take(np.arange(-(w // 2), size + w - w // 2) % size,
                        axis=0).view(float)
    windows = np.lib.stride_tricks.sliding_window_view(
        ext, w, axis=0).transpose(0, 2, 1)
    del stacked, spread
    offs = np.arange(w)

    def sums_at(x: np.ndarray, centre: np.ndarray) -> np.ndarray:
        out = np.empty((len(ranges) * n_rows, x.size), dtype=complex)
        for lo in range(0, x.size, _WINDOW_BLOCK):
            # a sub-block of x in grid units; its windows and weights
            sub = slice(lo, lo + _WINDOW_BLOCK)
            grid_x = x[sub] * (size / (2.0 * np.pi))
            first = np.ceil(grid_x - 0.5 * w)
            wts = _kernel(((grid_x - first)[:, None] - offs) * (2.0 / w))
            near = windows[first.astype(np.int64) + w // 2]
            sums = np.einsum("bw,bwr->br", wts, near).view(complex)
            np.multiply(sums.T, centre[sub], out=out[:, sub])
        return out.reshape(len(ranges), n_rows, x.size)

    return sums_at


def _workers(blocks: int) -> int:
    """Workers of an omega pass over ``blocks`` full blocks' worth of
    frequencies (ceil(n/_OMEGA_BLOCK)): the CPUs this process may run on,
    at most one per block (but at least one)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, blocks))


def _run_blocks(work, blocks: list[slice], workers: int) -> None:
    """``work(block)`` for every block, block i on worker i mod ``workers``:
    the calling thread and ``workers - 1`` threads, each in a copy of the
    caller's context (so under its numpy errstate).  numpy releases the GIL
    in the ufunc, fancy-index and einsum loops a block is made of.  One
    worker starts no thread.  Every thread is joined before the first
    exception, which stops the other workers at their next block, is
    re-raised."""
    errors = []

    def run(i: int) -> None:
        try:
            for block in blocks[i::workers]:
                if errors:
                    return
                work(block)
        except BaseException as exc:   # re-raised in the calling thread
            errors.append(exc)

    threads = []
    try:
        for i in range(1, workers):
            thread = threading.Thread(target=contextvars.copy_context().run,
                                      args=(run, i))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def field_amplitudes(traj: AmplitudeTrajectory, omega_grid: np.ndarray, t):
    """Right/left-moving photon amplitudes phi_R, phi_L at time(s) t.

    Evaluates the formal time integral

        phi_R(omega, t) = -i g0 sum_m Lm_R(omega) Int_0^t c_m(tau)
                           exp(i [omega tau - Omega(tau)]) dtau

    with g0 = sqrt(gamma/(4 pi)), Lm_R(omega) = sum_legs exp(-i omega x/v_g)
    (phi_L uses the conjugate leg factors).  ``t`` snaps to the nearest
    node and must lie in the run, from -GRID_END_SLACK*h to
    ``traj.horizon``; a sequence of times, in any order, shares one
    transform and one pass over the frequencies.

    The quadrature treats c_m as linear on each node interval and the
    oscillatory factor exp(i (omega - omega0) tau) exactly (Filon-type
    trapezoid), so arbitrarily wide windows stay alias-free; the only
    resolution requirement is the integrator's own step floor.  An interval
    containing a mid-step drive switch is weighted with the pre-switch
    drive, an O(h) slice of a single node.

    The sum over m runs over the record's channels y_p = (c_a + p*c_b)/2
    with leg factors L_a + p*L_b.  Snapshot k takes one row per channel and
    drive segment j it reaches: the nodes from segment j's first to the
    smaller of its last (a boundary node belongs to both) and the
    snapshot's.  The node sums of all rows are one type-2 nonuniform FFT on
    any ``omega_grid`` (uniform, descending, irregular or a few points),
    and each row's Filon sum adds straight into its snapshot.  Stage 1 is
    one stacked inverse FFT on M >= 2 N_tau points: O(R M log M) for R
    rows.  Stage 2 is one pass over ``omega_grid``; per frequency it takes
    w = 13 kernel weights, 13 grid values per row (gathered and summed in
    sub-blocks of 1024, by einsum: a batched matmul's bits change with the
    row count, and a snapshot's must not depend on the others), and one
    complex exponential, z = exp(i omega h), whose powers from one chain of
    squarings give every phase: the kernel's, the row end nodes', the
    Filon steps' and the legs'.  A leg in slot s sits q = |2s - (2N - 1)|
    half-delays from the centre, q K/2 steps for K a delay: z^(q K // 2),
    times exp(i omega h/2) for odd K (a second exponential, from its own
    reduction of omega h/2).  A leg farther out in steps than the run's
    last node (a run inside its first delays at a large K) takes its own
    exp(-i omega |x|/v_g) instead, as z^e would carry about e ulp.  Rows
    beyond ``_GRID_CAP`` stacked values (the grid, or one sub-block of
    windows) run in further, independent groups, one after the other, each
    with its own pass; the cap sizes the groups and nothing else.  The
    pass runs on W workers: W is the usable CPUs, at most one per
    ``_OMEGA_BLOCK`` = 8192 frequencies (at least one).  The grid splits
    into W times a whole number of contiguous blocks of at most 8192
    frequencies, within one of each other in size, block i on worker i
    mod W, so every worker gets the same share.  The workers are the
    calling thread and W - 1 threads (none for W = 1), each in a copy of
    the caller's context, so under its numpy errstate.  A frequency's
    arithmetic is element-wise and a block writes only its own columns of
    the result, so the bits depend neither on W nor on the block sizes.
    Against the direct sum on the criterion-8 runs (4161 nodes, five
    snapshots) the amplitudes agree to 1.8e-13 of the peak on every 40th
    point of the 80 001-point grid, and to 5.4e-13 on a random
    20 001-point subset (``default_rng(3)``).

    Memory: the result is 2 x snapshots x frequencies complex values, and
    a group's stacked grid at most ``_GRID_CAP``.  Each worker holds its
    own sub-block of gathered windows (the group's rows x 13 x 1024
    values, also within the cap) and its own block's element-wise
    temporaries: one array of up to 8192 values per power of z, and a few
    rows x 8192.  These grow with W.  A 40-snapshot ``excitation_balance``
    sweep of the criterion-8 run on the 80 001-point grid peaks at 202 MB
    resident on two workers (170 MB on one), 102 MB of it the result.

    Returns (phi_R, phi_L) with shape (len(omega_grid),), or
    (len(t), len(omega_grid)) for a sequence of times.

    Raises:
        ConfigError: for an empty, non-1-D or non-finite ``omega_grid``,
            times outside the run (non-finite ones included), or a drive
            that breaks ``DriveSchedule.check_phase`` at the run's last
            node, which its rotating frame reaches (naming omega0).
    """
    scalar = np.isscalar(t) or np.asarray(t).shape == ()
    times = np.atleast_1d(np.asarray(t, dtype=float))
    tau = traj.t
    h = tau[1] - tau[0]
    if not np.all((times >= -GRID_END_SLACK * h) & (times <= traj.horizon)):
        raise ConfigError(f"times must lie in the run, [0, {traj.horizon!r}]")
    stops = [traj.nearest_index(tv) for tv in times]

    omega = np.asarray(omega_grid, dtype=float)
    if omega.ndim != 1 or omega.size == 0 or not np.all(np.isfinite(omega)):
        raise ConfigError("omega_grid must be a non-empty 1-D array of "
                          "finite frequencies")
    cfg, sched = traj.config, traj.schedule
    g0 = math.sqrt(cfg.gamma / (4.0 * math.pi))

    # channel rows in the frame rotating with the drive: the absolute phase
    # Omega(tau) is the window phase over [0, tau], to the last node
    sched.check_phase(tau[-1], "omega0")
    rot = traj.c * np.exp(-1j * sched.window_phase(tau, tau))

    # leg l's exp(-i omega x_l/v_g), (e, r, x_l < 0): z^e exp(i omega r),
    # conjugated for x_l > 0.  Its slot s puts it q = |2s - (2N - 1)| (odd)
    # half-delays from the centre: e = q K // 2 whole steps of the K a delay
    # and r = h/2 for odd K, else 0 (at delay 0 every leg sits at 0).  z^e
    # rounds to about e ulp, so a leg whose e passes the last node takes
    # e = 0 and r = |x_l|/v_g: no less accurate than the node phases
    n_nodes = tau.size
    steps = traj.steps_per_delay if cfg.delay > 0 else 0

    def leg(slot: int, x: float) -> tuple[int, float, bool]:
        e = abs(2 * slot + 1 - 2 * cfg.n_legs) * steps // 2
        if e < n_nodes:
            return e, 0.5 * h * (steps % 2), x < 0
        return 0, abs(x) / cfg.v_g, x < 0

    legs = [[leg(s, x) for s, x in zip(cfg.leg_slots(atom),
                                       cfg.leg_positions(atom))]
            for atom in (0, 1)]

    # one row per snapshot k and segment j it reaches: segment j's nodes up
    # to the next segment's first (shared) or the snapshot's, if sooner
    seg_first = [0] + [min(n_nodes - 1, math.ceil(s / h - GRID_END_SLACK))
                       for s in sched.starts[1:]]
    rows = [(k, j, a, min(b, stop)) for k, stop in enumerate(stops)
            for j, (a, b) in enumerate(zip(seg_first, [*seg_first[1:], stop]))
            if a < min(b, stop)]
    # the cap bounds a group's rows by its grid and one worker's windows
    per_group = max(1, _GRID_CAP // max(1, len(traj.c)) // max(
        _grid_size(n_nodes), _NUFFT_WIDTH * _WINDOW_BLOCK))
    workers = _workers(-(-omega.size // _OMEGA_BLOCK))
    # W times a whole number of blocks of at most _OMEGA_BLOCK frequencies,
    # their sizes within one of each other: every worker gets the same share
    count = workers * -(-omega.size // (workers * _OMEGA_BLOCK))
    bounds = [i * omega.size // count for i in range(count + 1)]
    blocks = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    out = np.zeros((2, len(times), omega.size), dtype=complex)  # R, L
    for g in range(0, len(rows), per_group):
        group = rows[g:g + per_group]
        sums_at = _nufft_sums(rot, [(a, b) for _, _, a, b in group])
        segs = {j: a for _, j, a, _ in group}
        nodes = {n for _, _, a, b in group for n in (a, b)}
        powers = {1, n_nodes // 2, *nodes, *(e for s in legs for e, _, _ in s)}
        powers -= {0}

        def omega_block(blk: slice) -> None:
            om = omega[blk]
            x = np.remainder(om * h, 2.0 * np.pi)
            # z = exp(i omega h) gives the kernel phase z^c, a node's exp(i
            # omega tau_n) = z^n, segment j's Filon exp(i theta) = z exp(-i
            # omega_j h) and the leg phases; z^m is the product of the
            # squarings z^(2^k) of m's set bits in increasing k, bits that
            # depend on z and m only (z^0 = 1, for legs at delay 0 or K = 1)
            z, square = {0: np.ones(om.size)}, np.exp(1j * x)
            for k in range(max(powers).bit_length()):
                square = square * square if k else square
                for m in (m for m in powers if m >> k & 1):
                    z[m] = z[m] * square if m in z else square
            sums = sums_at(x, z[n_nodes // 2])
            # c at a node times exp(i omega tau), exactly c at tau = 0
            ends = {n: rot[:, n, None] * z[n] if n else rot[:, :1]
                    for n in nodes}
            # per segment: the Filon sum over nodes a..b of a row is
            # (w0 + w1s)*S - w0*end_b - w1s*end_a, w1s = w1 exp(-i theta)
            weights = {}
            for j, a in segs.items():
                e = z[1] * np.exp(-1j * sched.omegas[j] * h)
                w0, w1 = _filon_terms((om - sched.omegas[j]) * h, e)
                w0, w1 = h * w0, h * w1 * e.conj()
                weights[j] = w0 + w1, w0, w1 * ends[a]
            # leg sums L_a + p*L_b times -i g0; left-moving: the conjugates.
            # exp(i omega r) takes its own reduction: for r = h/2, x/2 is
            # off by pi after an odd number of wraps
            rest = {r: np.exp(1j * np.remainder(r * om, 2.0 * np.pi))
                    for sides in legs for _, r, _ in sides if r}

            def phase(e: int, r: float, neg: bool) -> np.ndarray:
                f = z[e] * rest[r] if r else z[e]
                return f if neg else f.conj()

            leg_a, leg_b = [sum(phase(e, r, neg) for e, r, neg in sides)
                            for sides in legs]
            factors = [-1j * g0 * np.stack((f, f.conj()))
                       for f in (leg_a + p * leg_b for p in traj.channels)]
            # only this block's columns of out: no other worker touches them
            for (k, j, a, b), acc in zip(group, sums):
                whole, w0, start = weights[j]
                part = whole * acc - w0 * ends[b] - start
                for factor, y in zip(factors, part):
                    out[:, k, blk] += factor * y

        _run_blocks(omega_block, blocks, workers)
    return (out[0, 0], out[1, 0]) if scalar else (out[0], out[1])


def excitation_balance(traj: AmplitudeTrajectory, omega_grid: np.ndarray, t):
    """Total excitation |c_a|^2 + |c_b|^2 + sum_dirs Int |phi|^2 domega at t.

    Equals 1 exactly in the model; the deficit measures quadrature error
    (finite window, node resolution) and is the standard conservation check.
    ``t`` must lie in the run, as for :func:`field_amplitudes`; a sequence
    of times shares its one sweep and gives one balance per time, the
    single calls' bits.
    """
    phi_r, phi_l = field_amplitudes(traj, omega_grid, t)
    balance = []
    for tv, right, left in zip(np.atleast_1d(t), np.atleast_2d(phi_r),
                               np.atleast_2d(phi_l)):
        i = traj.nearest_index(float(tv))
        balance.append(traj.pop_a[i] + traj.pop_b[i] + np.trapezoid(
            np.abs(right) ** 2 + np.abs(left) ** 2, omega_grid))
    return float(balance[0]) if phi_r.ndim == 1 else np.array(balance)
