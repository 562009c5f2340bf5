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

The module holds the integrator, its trajectory record and CSV; the field
a trajectory emits, in frequency and in real space, is computed in
:mod:`giantqed.field`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# the mode sum lives in field; the benchmark still calls it through dde
from .field import field_amplitudes, frequency_grid  # noqa: F401
from .model import (GRID_END_SLACK, AmplitudeRecord, ConfigError, DriveSchedule,
                    InitialState, SystemConfig, delay_table, write_csv)

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
            above the 0.02/gamma floor, a run of more grid nodes than the
            10^7-node budget (checked before anything is allocated), or a
            step h outside about [5e-154, 5e154], whose h^2/12 is no
            normal float (at eta = 0.2 and K = 100, a gamma outside about
            [4e-158, 4e150]).
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
    # about -h^2/12: once it leaves the normal floats the RK4 midpoint loses
    # its digits unseen, so h must lie between about 5e-154 and 5e154
    if not sys.float_info.min <= abs(a_slope) < math.inf:
        raise ConfigError(f"gamma = {config.gamma!r} makes the step h = {h!r}, "
                          f"whose h^2/12 leaves the normal floats; the "
                          f"integrator needs h in about [5e-154, 5e154]")
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
