"""Closed-form amplitude dynamics for parity eigenstates.

For symmetric/antisymmetric initial states the two coupled amplitude
equations collapse to one scalar delay equation

    dc/dt = -A_0 c(t) - sum_{n>=1} A_n c(t - n*delay) Theta(t - n*delay),

with A_n = (self_n + parity*cross_n) exp(i n phi) from the phase-free delay
table (``DelayTable.collective``).  Its exact solution is a sum of delayed
exponential branches, P_0 = c(0) and P_l(tau) = -sum_n A_n Int_0^tau P_{l-n},

    c(t) = sum_l Theta(t - l*delay) exp(-A_0 (t - l*delay)) P_l(t - l*delay).

On delay interval m it is one polynomial, c(m*delay + u) = exp(-A_0 u)
R_m(u) with R_m(u) = sum_{l<=m} E^(m-l) P_l(u + (m-l)*delay), E =
exp(-A_0 delay); so R_0 = c(0) and R_m(u) = E R_{m-1}(delay) - sum_n A_n
Int_0^u R_{m-n}, the method of steps in exact polynomial arithmetic
(Bellman & Cooke, Differential-Difference Equations, 1963).  One recursion
builds either table; the solution keeps the local one, whose rounding does
not pass through the large cancelling branches, and builds the branches
only when they are read.

This module also applies the final-value theorem for t->infinity and
provides the Laplace-domain denominators shared with the pole finder: one
``ParityKernel`` per (config, parity) evaluates D_p and D_p' together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (AmplitudeRecord, ConfigError, DriveSchedule, InitialState,
                    SystemConfig, delay_table)

#: Largest rounding-error bound on c(t) (normalised to c(0) = 1) that
#: ``ExpPolySolution.evaluate`` returns; the criterion-1 tolerance.
ROUNDING_TOL = 1e-6
#: Most delays one exact series spans: its table holds 16 L^2 bytes, 16 MB
_BRANCH_BUDGET = 1000
#: |D_p(0)| at most this times gamma is a root: ``steady_state`` calls it dark
DARK_TOL = 1e-9


class IllConditioned(Exception):
    """Raised when the series' rounding bound passes ``ROUNDING_TOL``."""


@dataclass(frozen=True)
class ExpPolySolution(AmplitudeRecord):
    """Exact solution of the collective amplitude, in both forms.

    Row m of ``local`` holds R_m in ascending powers of u/delay, entry
    (m, k) being r_mk delay^k; ``coeffs`` are the A_n it was built from,
    for ``config``.  ``branches[l]`` holds P_l in ascending powers of (t -
    l*delay), built from ``coeffs`` by the same recursion on first access.
    Both are normalised to c(0) = 1; :meth:`channel_values` scales them to
    the one channel of ``state``, y_p(t) = y_p(0) c(t), where y_p(0) = (c_a
    + p*c_b)/2 is c_a exactly.  When the delay-table coefficients alternate
    in sign (braided antisymmetric near even multiples of pi) the branches
    grow and cancel, and by t ~ 30/gamma at eta ~ 0.2 their sum has lost
    its digits; :meth:`evaluate` reads the local table, which keeps them
    (over many delays at large eta its rows cancel too, and it refuses).
    """

    local: np.ndarray
    coeffs: np.ndarray
    config: SystemConfig
    state: InitialState

    @property
    def decay(self) -> float:
        """A_0 = N*gamma/2, the exponent of every branch."""
        return float(self.coeffs[0].real)

    @property
    def delay(self) -> float:
        """The delay of ``config``, the length of one interval."""
        return self.config.delay

    @property
    def horizon(self) -> float:
        """Last legal query time: (intervals - 1e-12) delays."""
        return (len(self.local) - 1e-12) * self.delay

    @cached_property
    def schedule(self) -> DriveSchedule:
        """The undriven schedule the series solves: omega0 of ``config``."""
        return DriveSchedule.constant(self.config.omega0)

    @cached_property
    def branches(self) -> tuple[np.ndarray, ...]:
        """P_0 .. P_{rows-1}, the l-th with its l + 1 coefficients."""
        table = _series_table(self.coeffs, len(self.local), 1, 0)
        return tuple(p[:l + 1] for l, p in enumerate(table))

    @cached_property
    def _horner(self) -> tuple[np.ndarray, ...]:
        """Kept columns of ``local`` and |local|, and two per-row terms.

        Trailing columns whose every |r_mk| delay^k is below eps times the
        table's largest are dropped (``dropped``: each row's sum of them);
        ``carried`` = eps E sum_{j<m} sum_k |r_jk| delay^k is the rounding
        a row inherits through its start value.
        """
        eps = np.finfo(float).eps
        size = np.abs(self.local)
        kept = np.flatnonzero(~(size < eps * size.max()).all(axis=0))[-1] + 1
        carried = eps * math.exp(-self.decay * self.delay) * np.concatenate(
            [[0.0], np.cumsum(size.sum(axis=1))[:-1]])
        return (self.local[:, :kept].T.copy(), size[:, :kept].T.copy(),
                carried, size[:, kept:].sum(axis=1))

    def evaluate(self, t):
        """Collective amplitude c(t); accepts scalars or arrays.

        Negative times give 0; times past the horizon, and NaN, raise
        ConfigError.  Each time takes one Horner pass over its interval's
        row, with the rounding bound eps * (1 + x) exp(-x) sum_k |r_mk| u^k
        (Horner's, Higham, Accuracy and Stability of Numerical Algorithms,
        ch. 5, and the envelope's argument x = A_0 u) plus ``carried`` and
        exp(-x) times ``dropped``; IllConditioned is raised where it
        exceeds ``ROUNDING_TOL``.
        """
        t_arr = np.asarray(t, dtype=float)
        if not np.all(t_arr <= self.horizon):
            raise ConfigError(f"series with {len(self.local)} intervals is "
                              f"valid for t <= {self.horizon!r}")
        columns, sizes, carried, dropped = self._horner
        s = np.maximum(t_arr, 0.0) / self.delay
        m = np.minimum(np.floor(s), len(self.local) - 1).astype(np.intp)
        u = s - m
        out, own = columns[-1][m], sizes[-1][m]
        for column, size in zip(columns[-2::-1], sizes[-2::-1]):
            out = out * u + column[m]
            own = own * u + size[m]
        x = self.decay * self.delay * u
        envelope = np.exp(-x)
        bound = (envelope * (np.finfo(float).eps * (1.0 + x) * own + dropped[m])
                 + carried[m])
        if np.any(~(bound <= ROUNDING_TOL)):
            worst = np.unravel_index(np.argmax(bound), bound.shape)
            raise IllConditioned(
                f"series rounding bound {float(bound[worst]):.1e} at "
                f"t = {float(t_arr[worst])!r} exceeds {ROUNDING_TOL:g}; use "
                "the integrator for these times")
        out = np.where(t_arr < 0.0, 0.0, out * envelope)
        return out if out.shape else complex(out)

    def channel_values(self, t) -> np.ndarray:
        """The one channel y_p(t); times as for :meth:`evaluate`."""
        return np.multiply.outer([self.state.c_a], self.evaluate(t))


def _series_table(coeffs: np.ndarray, rows: int, unit, shrink) -> np.ndarray:
    """Series table of ``rows`` rows, in powers of t/``unit``.

    Row m is its start value minus sum_n A_n Int row m - n, each integral
    carrying a factor ``unit``.  A branch table takes unit 1 and start
    value 0 (``shrink`` 0); the local table takes unit delay and start
    value E R_{m-1}(delay), E = ``shrink``, a row sum.  Exact rationals
    (object arrays) work too.
    """
    table = np.zeros((rows, rows), dtype=coeffs.dtype)
    table[0, 0] = 1
    # the integral of u^k is u^(k+1)/(k+1): shift up one power and divide
    k = np.arange(1, rows)
    for m in range(1, rows):
        for n in range(1, min(m, len(coeffs) - 1) + 1):
            table[m, 1:m + 1] -= coeffs[n] * unit * table[m - n, :m] / k[:m]
        table[m, 0] = shrink * table[m - 1, :m].sum()
    return table


def exact_solution(config: SystemConfig, state: InitialState,
                   t_max: float) -> ExpPolySolution:
    """The exact series of a parity eigenstate ``state`` on [0, t_max].

    ``config`` needs a positive delay.  A finite t_max >= 0 takes
    floor(t_max/delay + 1e-12) + 1 delay intervals, at most
    ``_BRANCH_BUDGET`` + 1 (checked before allocating); the ``horizon``
    is at least t_max.
    """
    if config.delay <= 0:
        raise ConfigError("the branch series needs a positive delay")
    if state.parity is None:
        raise ConfigError(
            "exact series requires a symmetric or antisymmetric initial state")
    if not 0 <= t_max < math.inf:
        raise ConfigError(f"t_max must be finite and >= 0, got {t_max!r}")
    rows = np.floor(t_max / config.delay + 1e-12) + 1
    if rows - 1 > _BRANCH_BUDGET:
        raise ConfigError(f"the exact series spans at most {_BRANCH_BUDGET} "
                          f"delays, not {rows - 1:.6g}")

    coeffs = delay_table(config).collective(state.parity, config.phi)
    local = _series_table(coeffs, int(rows), config.delay,
                          math.exp(-float(coeffs[0].real) * config.delay))
    return ExpPolySolution(local=local, coeffs=coeffs, config=config,
                           state=state)


# -- Laplace domain ----------------------------------------------------------

@dataclass(frozen=True)
class ParityKernel:
    """D_p(s) = s + sum_n A_n exp(-s n delay) of one (config, parity).

    ``coeffs`` are the A_n of the lags n = 0..2N-1 (in units of ``delay``),
    from ``DelayTable.collective``; they depend on phi and gamma only.

    A row kernel stacks one such system per row: ``coeffs`` of shape
    (rows, lags) and ``delay`` of shape (rows,), evaluated at one s per row
    by the same formula, so a system alone and as a row agree bit for bit.
    """

    coeffs: np.ndarray
    delay: float | np.ndarray

    def evaluate(self, s):
        """(D_p(s), D_p'(s)) from one exp(-s n delay); scalars or arrays.

        A row kernel takes s of shape (rows,) and gives each row the same
        bits in any batch: ``weighted`` is named, as numpy reuses an unnamed
        temporary of 256 KiB or more in place, swapping the operands of the
        complex product e * weighted, which then rounds D_p' differently.
        """
        s = np.asarray(s, dtype=complex)
        lags = np.arange(self.coeffs.shape[-1]) * np.asarray(self.delay)[..., None]
        weighted = lags * self.coeffs
        # far in the left half plane the exponentials overflow to inf, which
        # is the honest saturating value for a root finder probing out there
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(-s[..., None] * lags)
            out = (s + (e * self.coeffs).sum(axis=-1),
                   1.0 - (e * weighted).sum(axis=-1))
        return out if s.shape else (complex(out[0]), complex(out[1]))

    def rows(self, index, delay=None) -> "ParityKernel":
        """Row kernel of the selected rows, at ``delay`` (default: their own).

        A single-system kernel counts as one row, index 0.
        """
        coeffs = np.atleast_2d(self.coeffs)[index]
        if delay is None:
            delay = np.atleast_1d(self.delay)[index]
        return ParityKernel(coeffs, np.full(len(coeffs), delay))


def parity_kernel(config: SystemConfig, parity: int) -> ParityKernel:
    """The kernel of D_p for ``config``, built from its delay table."""
    return ParityKernel(delay_table(config).collective(parity, config.phi),
                        config.delay)


def laplace_denominator(config: SystemConfig, parity: int, s):
    """D_p(s) = s + sum_n A_n exp(-s n delay); zeros are the decay poles."""
    return parity_kernel(config, parity).evaluate(s)[0]


def laplace_denominator_derivative(config: SystemConfig, parity: int, s):
    """dD_p/ds; a pole's residue is 1/D' there."""
    return parity_kernel(config, parity).evaluate(s)[1]


@dataclass(frozen=True)
class SteadyState:
    """Final-value-theorem verdict for a parity eigenstate.

    ``kind`` is "dark" when part of the excitation survives (bound state in
    the continuum) and "radiant" when everything decays.  ``amplitude`` is
    the t->infinity collective amplitude for the given initial state and
    ``population`` = |amplitude|^2 its surviving total excited population.
    ``phase_class`` records which multiple of pi the phase phi sits on
    (0 even, 1 odd, None neither).
    """

    kind: str
    amplitude: complex
    population: float
    phase_class: int | None


def steady_state(config: SystemConfig, state: InitialState) -> SteadyState:
    """Long-time limit of the collective amplitude via the final value theorem.

    lim_{t->inf} c(t) = lim_{s->0} s c(s) = c(0)/D'(0) when D(0) = 0 (to
    ``DARK_TOL``*gamma), and 0 otherwise.  D(0) = 0 happens exactly on the
    dark-state phase conditions (separate: phi any multiple of pi for either
    parity's surviving class; braided: antisymmetric at even multiples,
    symmetric at odd).
    """
    parity = state.parity
    if parity is None:
        raise ConfigError("steady state analysis requires a parity eigenstate")
    c0 = np.sqrt(2.0) * state.c_a      # <parity|state>, c_b = parity*c_a
    d0, slope = parity_kernel(config, parity).evaluate(0.0)
    cls = config.phase_class()
    if abs(d0) > DARK_TOL * config.gamma:
        return SteadyState("radiant", 0.0j, 0.0, cls)
    amp = c0 / slope
    return SteadyState("dark", amp, abs(amp) ** 2, cls)


def markovian_effective_rate(config: SystemConfig, state: InitialState) -> complex:
    """First-order-retardation collective decay rate (population convention).

    Expanding exp(-s n delay) = 1 - s n delay in the Laplace denominator
    turns the dynamics into a single exponential with complex rate

        rate = 2 * sum_n A_n / (1 - delay * sum_n n A_n) = 2 D_p(0) / D_p'(0),

    whose real part is the population decay rate; the imaginary part is a
    collective frequency shift.  Valid for any number of legs and both
    topologies.
    """
    parity = state.parity
    if parity is None:
        raise ConfigError("effective rate requires a parity eigenstate")
    d0, slope = parity_kernel(config, parity).evaluate(0.0)
    return 2.0 * d0 / slope
