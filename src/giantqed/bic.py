"""Single-excitation bound states in the continuum (BICs).

At special leg-spacing phases a totally antisymmetric atomic excitation
stops radiating: part of the excitation stays on the atoms and the rest is
trapped as a standing field between the legs.  This module builds that
normalized dark eigenstate, its overlap with atomic initial states, and the
momentum-space profile of the trapped field.

The state exists where the antisymmetric Laplace denominator vanishes at
the origin, D_-(0) = 0 (``analytic.steady_state`` calls that sector dark),
at a phase phi on a multiple of pi, and its atomic weight is the residue
1/D_-'(0) there.  For two legs that is phi = n*pi for separate atoms and
phi = 2n*pi for braided ones.  Atom b's legs mirror atom a's about x = 0
in both topologies, so the trapped field's momentum profile is
proportional to g(k)/(k - k0) with atom a's leg sum
g(k) = -sum_l sin(k x_l) over its N legs (for two legs,
sin(3kd/2) -+ sin(kd/2); upper sign separate, lower braided).  Only
antisymmetric-atomic-sector bound states are constructed here;
symmetric-sector dark states show up in ``analytic.steady_state`` but come
with no closed-form field profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .model import ConfigError, InitialState, SystemConfig, write_csv

#: |k - k0| below this (in units of 1/d) switches to the series limit of
#: g(k)/(k-k0), removing the 0/0 at the resonant wavenumber.
_LIMIT_WINDOW = 1e-8

#: Midpoint cells per window of ``field_norm``: on its analytic integrand
#: the rule is converged far below the window-truncation error.
_NORM_CELLS = 20_001


@dataclass(frozen=True)
class NoBic:
    """Verdict value for configurations without a bound state."""

    phi: float

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class BicState:
    """Normalized antisymmetric bound state in the continuum.

    ``epsilon1``/``epsilon2`` are the atomic amplitudes (epsilon2 =
    -epsilon1); 2|epsilon1|^2 = Re(1/D_-'(0)) is the atomic weight of the
    state and ``field_weight`` the complementary trapped-field weight, so
    the state is normalized to one.  ``phase_class`` is 0 when phi is an
    even multiple of pi and 1 when odd (for two legs the odd class exists
    only for the separate topology).
    """

    config: SystemConfig
    epsilon1: complex
    epsilon2: complex
    phase_class: int

    @property
    def atomic_weight(self) -> float:
        return 2.0 * abs(self.epsilon1) ** 2

    @property
    def field_weight(self) -> float:
        """Trapped-field norm, 1 - atomic_weight."""
        return 1.0 - self.atomic_weight

    @property
    def k0(self) -> float:
        return self.config.k0

    def _g(self, k):
        """Atom a's leg sum g(k) = -sum_l sin(k x_l)."""
        return -sum(np.sin(k * x) for x in self.config.leg_positions(0))

    def _g_prime(self, k):
        return -sum(x * np.cos(k * x) for x in self.config.leg_positions(0))

    def amplitude(self, k):
        """Trapped-field amplitude phi_k; the k0 point is the series limit."""
        k = np.asarray(k, dtype=float)
        cfg = self.config
        pref = -2j * self.epsilon1 * math.sqrt(cfg.gamma / (2.0 * math.pi * cfg.v_g))
        du = k - self.k0
        small = np.abs(du) * cfg.spacing < _LIMIT_WINDOW
        ratio = np.empty(k.shape, dtype=float)
        np.divide(self._g(k), du, out=ratio, where=~small)
        if small.any():
            ratio[small] = self._g_prime(k[small])
        out = pref * ratio
        return out if out.shape else complex(out)

    def intensity(self, k):
        """|phi_k|^2, the exported momentum-space field profile."""
        out = np.abs(self.amplitude(k)) ** 2
        return out if out.shape else float(out)


def bic_state(config: SystemConfig) -> BicState | NoBic:
    """The antisymmetric bound state of ``config``, or NoBic.

    The state exists when ``analytic.steady_state`` finds the
    antisymmetric sector dark (D_-(0) = 0) at a phase on a multiple of pi.
    Its atomic weight 2|epsilon1|^2 is the real part of the surviving
    amplitude of the normalized antisymmetric state, the final-value
    residue 1/D_-'(0).  For two legs, with eta = gamma*delay, that gives
    |epsilon1|^2 = 1/(2(1+3*eta)) for separate atoms at phi = 2n*pi and
    1/(2(1+eta)) at the other dark phases (separate odd, braided even).
    """
    phase_class = config.phase_class()
    if phase_class is None:
        return NoBic(phi=config.phi)
    steady = analytic.steady_state(config, InitialState.antisymmetric())
    if steady.kind != "dark":
        return NoBic(phi=config.phi)
    eps = math.sqrt(0.5 * steady.amplitude.real)
    return BicState(config=config, epsilon1=eps, epsilon2=-eps,
                    phase_class=phase_class)


def overlap_with_initial(bic: BicState, state: InitialState) -> float:
    """|<BIC|psi(0)>|^2 for an atomic-sector initial state.

    The field starts in vacuum, so only the atomic amplitudes contribute;
    this equals the surviving excited-state population at long times.
    """
    amp = (bic.epsilon1.conjugate() * state.c_a
           + bic.epsilon2.conjugate() * state.c_b)
    return abs(amp) ** 2


def field_norm(bic: BicState, half_width: float | None = None,
               extrapolate: bool = True) -> float:
    """Quadrature norm of the trapped field, int |phi_k|^2 dk.

    Midpoint rule (``_NORM_CELLS`` cells) on the symmetric window k in
    [k0 - L, k0 + L] (L default 200/d).  The truncated sin^2/u^2 tail makes
    the plain result converge at O(1/L); with ``extrapolate`` a Richardson
    step per window (widths L and 2L) removes the mean tail, and averaging
    the extrapolants over one oscillation period of the window edge
    suppresses the oscillatory boundary terms, leaving errors well under
    1e-6.  Converges to ``bic.field_weight``.  The cell count is sized by
    ``test_field_norm_cells_resolve_the_integrand``: a 10x finer midpoint
    agrees to 1e-8 (measured <= 5e-10), below the window errors of about
    1e-8 to 4e-7 that the extrapolation leaves.
    """
    d = bic.config.spacing
    if half_width is None:
        half_width = 200.0 / d

    def midpoint(lam: float) -> float:
        dk = 2.0 * lam / _NORM_CELLS
        k = bic.k0 - lam + dk * (np.arange(_NORM_CELLS) + 0.5)
        return float(np.sum(bic.intensity(k)) * dk)

    if not extrapolate:
        return midpoint(half_width)
    period = 2.0 * math.pi / d
    shifts = 8
    total = 0.0
    for j in range(shifts):
        lam = half_width + j * period / shifts
        total += 2.0 * midpoint(2.0 * lam) - midpoint(lam)
    return total / shifts


@dataclass(frozen=True)
class FieldProfile:
    """Sampled |phi_k|^2 with its running quadrature norm."""

    k: np.ndarray
    intensity: np.ndarray
    cumulative_norm: np.ndarray

    def to_csv(self, path) -> None:
        write_csv(path, [], "k,intensity,cumulative_norm",
                  [self.k, self.intensity, self.cumulative_norm])


def bic_field_profile(bic: BicState, k_grid=None) -> FieldProfile:
    """Sample the trapped-field profile on ``k_grid``.

    Defaults to 4001 points across k0 +- 40/d.  The running norm is the
    cumulative trapezoid of |phi_k|^2, so its last entry approximates the
    field weight captured by the grid's window.
    """
    if k_grid is None:
        d = bic.config.spacing
        k_grid = np.linspace(bic.k0 - 40.0 / d, bic.k0 + 40.0 / d, 4001)
    k = np.asarray(k_grid, dtype=float)
    if k.ndim != 1 or k.size < 2:
        raise ConfigError("k_grid must be a 1D grid with at least two points")
    intensity = bic.intensity(k)
    segments = 0.5 * (intensity[1:] + intensity[:-1]) * np.diff(k)
    cumulative = np.concatenate([[0.0], np.cumsum(segments)])
    return FieldProfile(k=k, intensity=intensity, cumulative_norm=cumulative)
