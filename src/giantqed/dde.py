"""Delay-equation integrator for the two-atom amplitudes.

The excited amplitudes obey a pair of linear delay differential equations
whose delayed coefficients are the phase-free DelayTable entries times the
phase of each retardation window.  They split into the exchange-parity
channels y_p = (c_a + p*c_b)/2, each the scalar equation y' = -sum_n A_n^p
Phi_n(t) y(t - n*delay) with A^p = ``DelayTable.collective(p, .)``; one
that starts at exactly 0 stays 0 and is not stored.  The integrator
works in the rotating (interaction) picture: no free omega0 oscillation.
It steps with classical RK4 on a grid aligned with the delay (h = delay/K),
so every delayed node value is read exactly from storage and only the
half-step stage values need interpolation (cubic Hermite from stored
values and one-sided derivatives).

Multiples of the delay are breakpoints: a new lag switches on there, so the
derivative jumps, and each breakpoint node stores a left and a right
derivative that interpolation never mixes.  Between breakpoints the method
of steps applies (Bellen & Zennaro, Numerical Methods for Delay
Differential Equations, 2003): on [m*delay, (m+1)*delay) every delayed
input comes from nodes <= m*K, which are already stored.  With those inputs
fixed, one RK4 step is the affine map y_{j+1} = R y_j + F_j per channel,
with R = 1 + z + z^2/2 + z^3/6 + z^4/24 (z = -gamma0*h) and F_j built from
the delayed sums at both nodes and the Hermite midpoint.  The K steps of an
interval are solved together in closed form, y_j = R^j (y_0 + sum_{k<j}
R^-(k+1) F_k): one multiply by inverse powers, one cumulative sum and one
scale.  Its rounding, at most j*eps*sum_k |F_k| R^(j-k-1), is the bound of
the step-by-step recurrence.  R^-j grows (0 < R < 1), so where R^-K would
pass e^200 (gamma0*delay above about 200) blocks of 200/(-ln R) steps each
restart from their first node: no scaled term can exceed 1e87 |F|.

A piecewise-constant frequency schedule ("drive") gives each delayed term
the phase accumulated over its retardation window,
exp(i Int_{t-n*delay}^t omega0(s) ds).  A window inside one segment k
accumulates the static phase n*omega_k*delay, so an interval whose windows
all lie inside one segment (every interval of an undriven run, all but
L + 1 per switch with lags up to L) takes one gather of its history
(values at nodes j and j + 1, the right derivative at j and the left at
j + 1) and one product per channel with the segment's A^p, giving the
delayed sums P at the nodes and F, the Hermite midpoint folded in: eight
array calls a pass with the recurrence and derivative update, whatever K,
three more per further block; pass segments come from one table built
before the loop.  Only intervals whose windows hold a switch build explicit
midpoints and per-node window phases (``window_phase``).  A switched run so
matches the undriven one bit for bit until a window reaches the switch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (AmplitudeRecord, ConfigError, DriveSchedule, InitialState,
                    SystemConfig, delay_table, write_csv)

#: Fraction of a step by which a run may end short of its t_max: the last
#: node is the first one past t_max - GRID_END_SLACK*h.  Queries up to that
#: far beyond the last node are legal and clamp to it.
GRID_END_SLACK = 1e-9

#: Most grid nodes one run may store, checked before anything is allocated:
#: 10^7 nodes hold the three (channel, nodes) complex arrays, 480 MB a channel.
_NODE_BUDGET = 10 ** 7


@dataclass(frozen=True)
class AmplitudeTrajectory(AmplitudeRecord):
    """Dense solution record of one integration run from ``state``.

    ``c`` holds the live channels y_p at the nodes ``t``, and ``d_right``
    and ``d_left`` their node derivatives used for Hermite interpolation,
    each as (channel, node); the left ones differ from the right ones only
    at breakpoint nodes (delayed terms switch on there).  ``intervals``
    counts the delay-interval passes of the run and ``switch_intervals``
    those whose retardation windows held a drive switch, so they took
    per-node phases (both 0 for delay = 0).
    """

    t: np.ndarray
    c: np.ndarray
    d_right: np.ndarray
    d_left: np.ndarray
    config: SystemConfig
    state: InitialState
    schedule: DriveSchedule
    steps_per_delay: int
    intervals: int
    switch_intervals: int

    @property
    def c_a(self) -> np.ndarray:
        return self.atoms(self.c, 0)

    @property
    def c_b(self) -> np.ndarray:
        return self.atoms(self.c, 1)

    @property
    def pop_a(self) -> np.ndarray:
        return np.abs(self.c_a) ** 2

    @property
    def pop_b(self) -> np.ndarray:
        return np.abs(self.c_b) ** 2

    @property
    def excited_population(self) -> np.ndarray:
        return self.pop_a + self.pop_b

    @property
    def horizon(self) -> float:
        """Last legal query time: the last node plus the grid-end slack."""
        return float(self.t[-1] + GRID_END_SLACK * (self.t[1] - self.t[0]))

    def channel_values(self, t) -> np.ndarray:
        """The channels at arbitrary times via piecewise cubic Hermite.  Times
        up to ``GRID_END_SLACK`` of a step outside [0, t[-1]] clamp to the
        end node; any other time, NaN included, raises ConfigError."""
        tq = np.asarray(t, dtype=float)
        h = self.t[1] - self.t[0]
        if tq.size and not (tq.min() >= -GRID_END_SLACK * h
                            and tq.max() <= self.horizon):
            raise ConfigError("interpolation time outside the stored run")
        tq = np.clip(tq, 0.0, self.t[-1])
        idx = np.clip((tq / h).astype(int), 0, len(self.t) - 2)
        nxt = idx + 1
        u = tq / h - idx
        h00 = (1 + 2 * u) * (1 - u) ** 2
        h10 = h * (u * (1 - u) ** 2)
        h01 = u * u * (3 - 2 * u)
        h11 = h * (u * u * (u - 1))
        # h00*y0 + h10*d0 + h01*y1 + h11*d1 summed in place in that order:
        # the same values with one live temporary
        c = h00 * self.c[..., idx]
        c += h10 * self.d_right[..., idx]
        c += h01 * self.c[..., nxt]
        c += h11 * self.d_left[..., nxt]
        return c

    def nearest_index(self, t: float) -> int:
        i = int(round(t / (self.t[1] - self.t[0])))
        return min(max(i, 0), len(self.t) - 1)


def integrate(config: SystemConfig, state: InitialState, t_max: float,
              steps_per_delay: int = 100) -> AmplitudeTrajectory:
    """Integrate the two-amplitude delay equations on [0, t_max] (the grid
    extends to the next whole step) at the constant frequency
    ``config.omega0``; see :func:`integrate_with_drive`."""
    return integrate_with_drive(config, state, t_max,
                                DriveSchedule.constant(config.omega0),
                                steps_per_delay)


def integrate_with_drive(config: SystemConfig, state: InitialState,
                         t_max: float, schedule: DriveSchedule,
                         steps_per_delay: int = 100) -> AmplitudeTrajectory:
    """Integrate with a piecewise-constant frequency schedule.

    ``steps_per_delay`` is K: the step delay/K must not exceed 0.02/gamma
    (K >= 50*eta).  ``config.delay == 0`` is solved in closed form.  Each
    channel that starts nonzero is integrated alone.  The delayed term at
    lag n*delay picks up the phase accumulated over its own retardation
    window, exp(i [Omega(t) - Omega(t - n*delay)]) with Omega the integral
    of omega0(s).  For a single-segment schedule this is bit-identical to
    :func:`integrate`, and so is a switched run until its first retardation
    window reaches the switch.

    Raises:
        ConfigError: for a non-positive or non-finite ``t_max``, a step
            above the 0.02/gamma floor, or a run of more grid nodes than
            the 10^7-node budget (checked before anything is allocated).
    """
    if not 0 < t_max < math.inf:
        raise ConfigError(f"t_max must be positive and finite, got {t_max!r}")
    if steps_per_delay < 1:
        raise ConfigError("steps_per_delay must be at least 1")
    # accuracy floor on the step against the decay timescale, not the
    # delay: tiny delays may use K = 1, large ones need K >= 50*eta
    if config.delay > 0 and \
            config.delay / steps_per_delay > 0.02 / config.gamma + 1e-15:
        raise ConfigError(f"step too coarse: steps_per_delay = "
                          f"{steps_per_delay} must be >= 50*eta with "
                          f"eta = {config.eta!r}")
    channels = state.channels
    start = [0.5 * (state.c_a + p * state.c_b) for p in channels]   # y_p(0)
    if config.delay == 0.0:
        return _integrate_instantaneous(config, state, start, t_max,
                                        steps_per_delay, schedule)

    table = delay_table(config)
    gamma0 = float(table.self_terms[0])   # A_0^p: the atoms share no slot
    n_lags = table.max_step
    ch = len(channels)

    K = steps_per_delay
    delay = config.delay
    h = delay / K                       # 0 when a tiny delay underflows
    n_steps = max(1, _check_node_budget(t_max / h - GRID_END_SLACK if h else math.inf))
    # a run inside the first delay is one pass, whatever K (even past int64)
    K = min(K, n_steps + 1)
    # one RK4 step with the delayed inputs fixed: y1 = amp*y0 + F with
    # F = w_node*P(t0) + w_mid*M + w_end*P(t1), where P is the delayed sum
    # at a node and M the one at the midpoint
    z = -gamma0 * h
    amp = 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))
    w_node = -(h / 6.0) * (1.0 + z + z * z / 2.0 + z ** 3 / 4.0)
    w_mid = -(h / 6.0) * (4.0 + 2.0 * z + z * z / 2.0)
    w_end = -h / 6.0
    # with one phase per lag, M is linear in the delayed sums Q and R of
    # the right and left derivatives: M_j = (P_j + P_{j+1})/2 + (h/8)(Q_j -
    # R_{j+1}), so F_j = a_node*P_j + a_end*P_{j+1} + a_slope*(Q_j - R_{j+1})
    a_node = w_node + 0.5 * w_mid
    a_end = w_end + 0.5 * w_mid
    a_slope = 0.125 * h * w_mid
    # (P; F) = weights @ history, as (segment, channel, P or F, kind, lag)
    # from A_n^p; a window in segment k has the static phase n*omega_k*delay
    mix = np.array([[1.0, 0.0, 0.0, 0.0], [a_node, a_end, a_slope, -a_slope]])
    seg_coeffs = table.collective(channels, np.multiply(schedule.omegas, delay))
    weights = mix[:, :, None] * seg_coeffs.swapaxes(0, 1)[:, :, None, None, 1:]
    coeffs = table.collective(channels, 0.0)[:, 1:]     # phase-free

    # values, right and left derivatives as (kind, channel, node); zeroed, so
    # what a gather reads past the stored nodes only feeds unused columns
    store = np.zeros((3, ch, n_steps + 1), dtype=complex)
    c, d_right, d_left = store
    c[:, 0] = start
    d_right[:, 0] = d_left[:, 0] = -gamma0 * c[:, 0]
    # flat offsets of the gathered channel x (value at node j, value at
    # j + 1, right derivative at j, left at j + 1), for node j = 0
    flat, nodes = store.reshape(-1), n_steps + 1
    offsets = np.add.outer(nodes * np.arange(ch),
                           [0, 1, ch * nodes, 2 * ch * nodes + 1])
    recurrence = _affine_recurrence(amp, K)
    decay = np.complex128(-gamma0)   # as the product would cast it

    # one pass per interval [m*delay, (m+1)*delay) from node lo = m*K; a last
    # node on a breakpoint is a pass of no steps: it sets its right derivative.
    # Its windows [t - lag*delay, t] span nodes lo - K*live to its last; its
    # segment holds both ends (a switch on an end node lies outside), else -1
    lows = np.arange(0, n_steps + 1, K)
    first, last = np.searchsorted(schedule.starts, [
        (np.maximum(lows - K * n_lags, 0) + GRID_END_SLACK) * h,
        (np.minimum(lows + K, n_steps) - GRID_END_SLACK) * h], side="right")
    segs = np.where(first == last, first - 1, -1).tolist()
    del lows, first, last            # before the loop fills the store
    switch_passes = 0
    shapes = {}      # per pass shape (n, live): gather index, couplings, solver
    for lo, seg in zip(range(0, n_steps + 1, K), segs):
        n = min(K, n_steps - lo)
        live = min(lo // K, n_lags)
        if (n, live) not in shapes:
            # channel x rows (kind, lag) x node j, from the window start
            shapes[n, live] = (
                (offsets[..., None] + K * (live - np.arange(1, live + 1))
                 ).reshape(ch, 4 * live, 1) + np.arange(n + 1),
                [w.reshape(ch, 2, 4 * live) for w in weights[..., :live]],
                recurrence(n))
        index, cpls, solve = shapes[n, live]
        hist = flat[lo - K * live:].take(index)
        if seg >= 0:
            pf = cpls[seg] @ hist
            p, f = pf[:, 0], pf[:, 1]
        else:
            # a switch inside the windows: per-node accumulated phases,
            # so explicit Hermite midpoints
            switch_passes += 1
            val, nxt, right, left = hist.reshape(ch, 4, live, n + 1).swapaxes(0, 1)
            mid = 0.5 * (val[..., :-1] + nxt[..., :-1]) + 0.125 * h * (
                right[..., :-1] - left[..., :-1])
            t_node = (lo + np.arange(n + 1)) * h
            times = np.concatenate((t_node, t_node[:-1] + 0.5 * h))
            ph = np.exp(1j * schedule.window_phase(
                times, (np.arange(1, live + 1) * delay)[:, None]))
            cpl = coeffs[:, None, :live]
            p = (cpl @ (val * ph[:, :n + 1]))[:, 0]
            m = (cpl @ (mid * ph[:, n + 1:]))[:, 0]
            f = w_node * p[:, :-1] + w_mid * m + w_end * p[:, 1:]

        y = c[:, lo:lo + n + 1]
        solve(y, f)
        # right sense at breakpoint lo (new lag in); next pass redoes lo + n
        dd = np.multiply(y, decay, out=d_right[:, lo:lo + n + 1])
        dd -= p
        d_left[:, lo + 1:lo + n + 1] = dd[:, 1:]

    return AmplitudeTrajectory(np.arange(n_steps + 1) * h, *store,
                               config=config, state=state, schedule=schedule,
                               steps_per_delay=steps_per_delay,
                               intervals=n_steps // K + 1,
                               switch_intervals=switch_passes)


def _affine_recurrence(amp: float, K: int):
    """Solvers of y[:, j+1] = amp*y[:, j] + f[:, j] in place from y[:, 0]:
    ``_affine_recurrence(amp, K)(n)(y, f)`` for passes of n <= K steps.  Per
    block of b steps from its first node y0, y[:, i] = amp^i (y0 + sum_{k<i}
    amp^-(k+1) f[:, k]), b = K or the most steps with amp^-b <= e^200."""
    b = K if -K * math.log(amp) <= 200.0 else int(-200.0 / math.log(amp))
    j = np.arange(b + 1.0)
    # complex, as the products would cast them at every call
    pw, inv = (amp ** j).astype(complex), (amp ** -j[1:]).astype(complex)

    def solver(n: int):
        if n > b:
            def blocks(y, f) -> None:
                for s in range(0, n, b):
                    solver(min(b, n - s))(y[:, s:s + b + 1], f[:, s:s + b])
            return blocks
        inv_n, pw_n = inv[:n], pw[:n + 1]

        def solve(y, f) -> None:
            np.multiply(f[:, :n], inv_n, out=y[:, 1:])
            np.add.accumulate(y, axis=1, out=y)
            np.multiply(y, pw_n, out=y)
        return solve
    return solver


def _check_node_budget(
        steps: float, levers: str = "lower --t-max or --steps-per-delay"
) -> int:
    """ceil(steps), once steps + 1 nodes (or more) fit the node budget.

    ``levers`` ends the error message: the flags that shrink the run.
    """
    if not steps <= _NODE_BUDGET - 1:         # also catches inf
        raise ConfigError(f"the run needs {steps + 1:.3g} grid nodes, above "
                          f"the budget of {_NODE_BUDGET:.0e}; {levers}")
    return int(math.ceil(steps))


def _integrate_instantaneous(config: SystemConfig, state: InitialState,
                             start: list, t_max: float, steps_per_delay: int,
                             schedule: DriveSchedule) -> AmplitudeTrajectory:
    """delay = 0: all retardation windows collapse, closed-form exponentials."""
    rates = delay_table(config).collective(  # phi = 0: real A_n
        state.channels, config.phi).sum(axis=-1).real[:, None]
    n = _check_node_budget(max(steps_per_delay, 50)
                           * max(1.0, np.ceil(t_max * config.gamma)))
    t = np.linspace(0.0, t_max, n + 1)
    start = np.array(start)[:, None]
    decay = np.exp(-rates * t)
    d = (-rates * start) * decay
    return AmplitudeTrajectory(t=t, c=start * decay, d_right=d, d_left=d,
                               config=config, state=state,
                               schedule=schedule, steps_per_delay=steps_per_delay,
                               intervals=0, switch_intervals=0)


# -- emitted spectrum ---------------------------------------------------------

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

#: Frequencies per block of the mode sum's omega pass: a block's spread
#: indices, kernel weights and interpolated rows stay in cache.
_OMEGA_BLOCK = 2048

#: Most values one group of node rows may hold, in the stacked NUFFT grid
#: (rows x oversampled length) and in a block's gathered kernel windows
#: (rows x width x block); rows past it go in further groups, each with
#: its own omega pass.  A group holds at least one (snapshot, segment) row.
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
    x into shape (len(ranges), len(rows), len(x)).
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
        # x in grid units; its window and weights
        grid_x = x * (size / (2.0 * np.pi))
        first = np.ceil(grid_x - 0.5 * w)
        wts = _kernel(((grid_x - first)[:, None] - offs) * (2.0 / w))
        near = windows[first.astype(np.int64) + w // 2]
        out = np.einsum("bw,bwr->br", wts, near).view(complex)
        out = np.multiply(out.T, centre, order="C")
        return out.reshape(len(ranges), n_rows, x.size)

    return sums_at


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
    rows.  Stage 2 is one pass over ``omega_grid`` in blocks of 2048
    frequencies; per frequency it takes w = 13 kernel weights, 13 grid
    values per row (by einsum: a batched matmul's bits change with the row
    count, and a snapshot's must not depend on the others), and one complex
    exponential for every whole-step phase (kernel, row end nodes, Filon
    steps: powers of exp(i omega h)), plus one per leg distance.  Rows
    beyond ``_GRID_CAP`` stacked values run in further, independent
    groups, each with its own pass.  Against the direct sum on the
    criterion-8 runs (4161 nodes, five snapshots) the amplitudes agree to
    1.8e-13 of the peak on every 40th point of the 80 001-point grid, and
    to 5.3e-13 on a random 20 001-point subset (``default_rng(3)``).

    Returns (phi_R, phi_L) with shape (len(omega_grid),), or
    (len(t), len(omega_grid)) for a sequence of times.

    Raises:
        ConfigError: for an empty, non-1-D or non-finite ``omega_grid``, or
            times outside the run (non-finite ones included).
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
    # one exp(-i omega |x|/v_g) per leg distance from the centre; a leg at
    # negative x takes its conjugate
    dist = sorted({abs(x) for atom in (0, 1) for x in cfg.leg_positions(atom)})
    legs = [[(dist.index(abs(x)), x < 0) for x in cfg.leg_positions(atom)]
            for atom in (0, 1)]

    # channel rows in the frame rotating with the drive: the absolute phase
    # Omega(tau) is the window phase over [0, tau]
    rot = traj.c * np.exp(-1j * sched.window_phase(tau, tau))

    # one row per snapshot k and segment j it reaches: segment j's nodes up
    # to the next segment's first (shared) or the snapshot's, if sooner
    n_nodes = tau.size
    seg_first = [0] + [min(n_nodes - 1, math.ceil(s / h - GRID_END_SLACK))
                       for s in sched.starts[1:]]
    rows = [(k, j, a, min(b, stop)) for k, stop in enumerate(stops)
            for j, (a, b) in enumerate(zip(seg_first, [*seg_first[1:], stop]))
            if a < min(b, stop)]
    per_group = max(1, _GRID_CAP // max(1, len(traj.c)) // max(
        _grid_size(n_nodes), _NUFFT_WIDTH * _OMEGA_BLOCK))

    out = np.zeros((2, len(times), omega.size), dtype=complex)  # R, L
    for g in range(0, len(rows), per_group):
        group = rows[g:g + per_group]
        sums_at = _nufft_sums(rot, [(a, b) for _, _, a, b in group])
        segs = {j: a for _, j, a, _ in group}
        nodes = {n for _, _, a, b in group for n in (a, b)}
        powers = {1, n_nodes // 2, *nodes} - {0}
        for lo in range(0, omega.size, _OMEGA_BLOCK):
            blk = slice(lo, lo + _OMEGA_BLOCK)
            om = omega[blk]
            x = np.remainder(om * h, 2.0 * np.pi)
            # z = exp(i omega h) gives the kernel phase z^c, a node's exp(i
            # omega tau_n) = z^n and segment j's Filon exp(i theta) = z
            # exp(-i omega_j h); z^m is the product of the squarings z^(2^k)
            # of m's set bits in increasing k, bits that depend on z and m only
            z, square = {}, np.exp(1j * x)
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
            # leg sums L_a + p*L_b times -i g0; left-moving: the conjugates
            ph = np.exp(-1j * np.outer(dist, om) / cfg.v_g)
            leg_a, leg_b = [sum(ph[d].conj() if neg else ph[d]
                                for d, neg in sides) for sides in legs]
            factors = [-1j * g0 * np.stack((f, f.conj()))
                       for f in (leg_a + p * leg_b for p in traj.channels)]
            for (k, j, a, b), acc in zip(group, sums):
                whole, w0, start = weights[j]
                part = whole * acc - w0 * ends[b] - start
                for factor, y in zip(factors, part):
                    out[:, k, blk] += factor * y
    return (out[0, 0], out[1, 0]) if scalar else (out[0], out[1])


def excitation_balance(traj: AmplitudeTrajectory, omega_grid: np.ndarray, t) -> float:
    """Total excitation |c_a|^2 + |c_b|^2 + sum_dirs Int |phi|^2 domega at t.

    Equals 1 exactly in the model; the deficit measures quadrature error
    (finite window, node resolution) and is the standard conservation check.
    ``t`` must lie in the run, as for :func:`field_amplitudes`.
    """
    phi_r, phi_l = field_amplitudes(traj, omega_grid, t)
    field = np.trapezoid(np.abs(phi_r) ** 2 + np.abs(phi_l) ** 2, omega_grid)
    i = traj.nearest_index(float(t))
    return float(traj.pop_a[i] + traj.pop_b[i] + field)


def to_csv(traj: AmplitudeTrajectory, path) -> None:
    """Write the trajectory as CSV with a config-echo comment header."""
    comments = ["giantqed amplitude trajectory", *traj.config.summary_lines(),
                f"steps_per_delay = {traj.steps_per_delay}"]
    if len(traj.schedule.omegas) > 1:
        seg = ", ".join(f"({float(s)!r}, {float(w)!r})" for s, w in
                        zip(traj.schedule.starts, traj.schedule.omegas))
        comments.append(f"schedule = [{seg}]")
    _write_trajectory(path, comments, traj.t, traj.c_a, traj.c_b)


def _write_trajectory(path, comments, t, c_a, c_b) -> None:
    """Trajectory CSV of either engine: t, both amplitudes and |c|^2."""
    write_csv(path, comments, "t,re_ca,im_ca,re_cb,im_cb,pop_a,pop_b",
              [t, c_a.real, c_a.imag, c_b.real, c_b.imag,
               np.abs(c_a) ** 2, np.abs(c_b) ** 2])
