"""Closed-form amplitude dynamics for parity eigenstates.

For symmetric/antisymmetric initial states the two coupled amplitude
equations collapse to one scalar delay equation

    dc/dt = -A_0 c(t) - sum_{n>=1} A_n c(t - n*delay) Theta(t - n*delay),

with A_n = (self_n + parity*cross_n) exp(i n phi) from the phase-free delay
table (``DelayTable.collective``).  Its exact solution
is a sum of delayed exponential branches

    c(t) = sum_l Theta(t - l*delay) exp(-A_0 (t - l*delay)) P_l(t - l*delay),

where each P_l is a polynomial of degree <= l obtained by integrating the
lower branches once per delayed term:

    P_0 = c(0),   P_l(tau) = -sum_{n>=1} A_n Int_0^tau P_{l-n}(s) ds.

This module builds the branch polynomials, evaluates the series, applies the
final-value theorem for t->infinity, and provides the Laplace-domain
denominators shared with the pole finder: one ``ParityKernel`` per
(config, parity) evaluates D_p and D_p' together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (ConfigError, InitialState, SystemConfig, delay_table,
                    write_csv)

#: Largest rounding-error bound on c(t) (normalised to c(0) = 1) that
#: ``ExpPolySolution.evaluate`` returns; the criterion-1 tolerance.
ROUNDING_TOL = 1e-6


class OutOfHorizon(Exception):
    """Raised when the series is evaluated past its last computed branch."""


class IllConditioned(Exception):
    """Raised when cancellation between branches has eaten the series' digits."""


@dataclass(frozen=True)
class ExpPolySolution:
    """Exact branch-series solution of the collective amplitude.

    ``branches[l]`` holds the coefficients of P_l in ascending powers of
    (t - l*delay); the stored series is normalised to c(0) = 1 and ``scale``
    maps it back onto atom a (c_a(t) = scale * c(t), c_b = parity * c_a).

    The representation is exact but not uniformly well conditioned: when the
    delay-table coefficients alternate in sign (e.g. braided antisymmetric
    near even multiples of pi) the individual branches grow large and cancel,
    and round-off takes over past roughly t ~ 30/gamma at eta ~ 0.2.
    :meth:`evaluate` bounds that round-off and refuses to answer once it
    could exceed ``ROUNDING_TOL``; for such times use the integrator in
    :mod:`giantqed.dde`.
    """

    branches: tuple[np.ndarray, ...]
    decay: float                 # A_0 = N*gamma/2, exponent of every branch
    delay: float
    parity: int
    scale: complex

    @property
    def horizon(self) -> float:
        """First time not covered by the stored branches."""
        return (len(self.branches)) * self.delay

    def __call__(self, t):
        return self.evaluate(t)

    def evaluate(self, t):
        """Collective amplitude c(t); accepts scalars or arrays.

        Negative times give 0; times at or past the horizon raise
        OutOfHorizon (branch l = horizon/delay would already contribute).

        Alongside the sum it keeps the rounding bound (Higham, Accuracy and
        Stability of Numerical Algorithms, ch. 3)
        eps * sum_l exp(-A_0 tau_l) * sum_k |p_lk| tau_l^k, tau_l = t - l*delay,
        and raises IllConditioned where it exceeds ``ROUNDING_TOL``.
        """
        polyval = np.polynomial.polynomial.polyval
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr >= self.horizon - 1e-12 * self.delay):
            raise OutOfHorizon(
                f"series with {len(self.branches)} branches is valid for "
                f"t < {self.horizon!r}")
        out = np.zeros(t_arr.shape, dtype=complex)
        bound = np.zeros(t_arr.shape)
        for l, poly in enumerate(self.branches):
            tau = t_arr - l * self.delay
            live = tau >= 0.0
            if not np.any(live):
                break
            tl = np.where(live, tau, 0.0)
            envelope = np.exp(-self.decay * tl)
            out += np.where(live, envelope * polyval(tl, poly), 0.0)
            bound += np.where(live, envelope * polyval(tl, np.abs(poly)), 0.0)
        bound *= np.finfo(float).eps
        if np.any(bound > ROUNDING_TOL):
            worst = np.unravel_index(np.argmax(bound), bound.shape)
            raise IllConditioned(
                f"branch series rounding bound {float(bound[worst]):.1e} at "
                f"t = {float(t_arr[worst])!r} exceeds {ROUNDING_TOL:g}; use "
                "the integrator for these times")
        return out if out.shape else complex(out)

    def atomic(self, t):
        """(c_a(t), c_b(t)) for the initial state the series was built from."""
        c = self.evaluate(t)
        c_a = self.scale * c
        return c_a, self.parity * c_a


def exact_solution(config: SystemConfig, state: InitialState,
                   n_branches: int | None = None,
                   t_max: float | None = None) -> ExpPolySolution:
    """Construct the branch series for a parity eigenstate.

    Args:
        config: system parameters (delay must be positive).
        state: symmetric or antisymmetric initial state.
        n_branches: number of branches l = 0..n_branches-1 to generate.
        t_max: alternatively, generate enough branches to cover [0, t_max].

    Returns:
        ExpPolySolution valid on [0, n_branches*delay).
    """
    if config.delay <= 0:
        raise ConfigError("the branch series needs a positive delay")
    parity = state.parity
    if parity is None:
        raise ConfigError(
            "exact series requires a symmetric or antisymmetric initial state")
    if n_branches is None:
        if t_max is None:
            raise ConfigError("give either n_branches or t_max")
        if not math.isfinite(t_max):
            raise ConfigError(f"t_max must be finite, got {t_max!r}")
        n_branches = int(np.floor(t_max / config.delay + 1e-12)) + 1
    if n_branches < 1:
        raise ConfigError("need at least one branch")

    coeffs = delay_table(config).collective(parity, config.phi)
    decay = float(coeffs[0].real)

    branches: list[np.ndarray] = [np.array([1.0 + 0.0j])]
    for l in range(1, n_branches):
        # P_l(tau) = -sum_n A_n * Int_0^tau P_{l-n}; the integral of tau^k is
        # tau^(k+1)/(k+1), so every source branch shifts up one degree.
        poly = np.zeros(l + 1, dtype=complex)
        for n, a_n in enumerate(coeffs[1:l + 1], start=1):
            src = branches[l - n]
            k = np.arange(src.size)
            poly[1:src.size + 1] -= a_n * src / (k + 1)
        branches.append(poly)

    return ExpPolySolution(branches=tuple(branches), decay=decay,
                           delay=config.delay, parity=parity,
                           scale=state.c_a)


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

        A row kernel takes s of shape (rows,) and returns one value per row.
        """
        s = np.asarray(s, dtype=complex)
        lags = np.arange(self.coeffs.shape[-1]) * np.asarray(self.delay)[..., None]
        # far in the left half plane the exponentials overflow to inf, which
        # is the honest saturating value for a root finder probing out there
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(-s[..., None] * lags)
            out = (s + (e * self.coeffs).sum(axis=-1),
                   1.0 - (e * (lags * self.coeffs)).sum(axis=-1))
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


def steady_state(config: SystemConfig, state: InitialState,
                 tol: float = 1e-9) -> SteadyState:
    """Long-time limit of the collective amplitude via the final value theorem.

    lim_{t->inf} c(t) = lim_{s->0} s c(s) = c(0)/D'(0) when D(0) = 0, and 0
    otherwise.  D(0) = 0 happens exactly on the dark-state phase conditions
    (separate: phi any multiple of pi for either parity's surviving class;
    braided: antisymmetric at even multiples, symmetric at odd).
    """
    parity = state.parity
    if parity is None:
        raise ConfigError("steady state analysis requires a parity eigenstate")
    c0 = np.sqrt(2.0) * state.c_a      # <parity|state>, c_b = parity*c_a
    d0, slope = parity_kernel(config, parity).evaluate(0.0)
    cls = config.phase_class()
    if abs(d0) > tol * config.gamma:
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


def coefficients_to_csv(solution: ExpPolySolution, path) -> None:
    """Write branch polynomial coefficients as rows (l, j, re_p, im_p)."""
    sizes = [poly.size for poly in solution.branches]
    coeffs = np.concatenate(solution.branches)
    write_csv(path,
              ["branch polynomial coefficients, ascending powers per branch",
               f"decay = {solution.decay!r}",
               f"delay = {solution.delay!r}",
               f"parity = {solution.parity:+d}"],
              "l,j,re_p,im_p",
              [np.repeat(np.arange(len(sizes)), sizes),
               np.concatenate([np.arange(n) for n in sizes]),
               coeffs.real, coeffs.imag])
