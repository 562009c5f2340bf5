"""Single-photon scattering and collective decay poles, any number of legs.

Everything here derives from one coupling kernel per parity: the
parity-reduced Laplace denominators D_p(s) = s + sum_n A_n^p exp(-s n delay)
of :mod:`giantqed.analytic` (``analytic.parity_kernel``), built from the
retarded coupling table.  A photon with detuning delta_k sees the two atoms
through their leg sums L_m(k) = sum_l exp(i k x_l) over each atom's N legs;
splitting the 2x2 Green's function into the symmetric and antisymmetric
channels gives t and r as sums over p of leg sums divided by D_p(-i delta_k).

The zeros of D_p are the collective decay poles, rate = -2s: the real part
is the population decay rate, the imaginary part the frequency shift.
Frozen retardation (exp(-s n delay) -> 1) gives the Markovian rates
2 sum_n A_n^p, which seed a damped complex Newton iteration on D_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import analytic
from .model import SystemConfig, delay_table, write_csv


#: Residual targets |D_p(s)|/gamma and Newton iteration caps of
#: ``nonmarkovian_poles`` and of each ``connected_pole`` ramp step.
POLE_TOL, POLE_MAX_ITER = 1e-10, 200
RAMP_TOL, RAMP_MAX_ITER = 1e-12, 100


class NonConvergence(Exception):
    """Newton iteration failed to reach the residual target."""


def scattering(config: SystemConfig, delta_k):
    """Transmission and reflection amplitudes (t, r) at detuning delta_k.

    ``delta_k`` is the detuning (omega - omega0) of the incoming photon;
    scalars or arrays work.  |t|^2 + |r|^2 = 1 on the real axis.  With
    k = (omega0 + delta_k)/v_g, L_m = sum_l exp(i k x_l) over the legs of
    atom m and Lbar_m the same sum with exp(-i k x_l),

        t = 1 - (gamma/4) sum_p (Lbar_a + p Lbar_b)(L_a + p L_b) / D_p,
        r =   - (gamma/4) sum_p (L_a + p L_b)^2 / D_p,

    with D_p = D_p(-i delta_k).  The legs are centred on x = 0, which is
    where the reflection phase is referenced; t is reference independent.

    Exactly on a trapping resonance (phi on its dark multiple of pi AND
    delta_k = 0) numerator and denominator share a zero and the entry is
    nan; the limit is smooth, so any neighbouring detuning gives it.
    """
    dk = np.asarray(delta_k, dtype=complex)
    k = (config.omega0 + dk) / config.v_g

    def leg_sum(atom: int, sign: int):
        return sum(np.exp(sign * 1j * k * x)
                   for x in config.leg_positions(atom))

    l_a, l_b = leg_sum(0, +1), leg_sum(1, +1)
    lbar_a, lbar_b = leg_sum(0, -1), leg_sum(1, -1)
    t = np.ones(dk.shape, dtype=complex)
    r = np.zeros(dk.shape, dtype=complex)
    with np.errstate(invalid="ignore", divide="ignore"):
        for p in (+1, -1):
            den = analytic.laplace_denominator(config, p, -1j * dk)
            drive = l_a + p * l_b
            t -= 0.25 * config.gamma * (lbar_a + p * lbar_b) * drive / den
            r -= 0.25 * config.gamma * drive * drive / den
    if t.shape:
        return t, r
    return complex(t), complex(r)


def markovian_rates(config: SystemConfig) -> tuple[complex, complex]:
    """Frozen-retardation collective rates (Gamma_plus, Gamma_minus).

    These are 2*sum(A_n) over the parity-reduced delay coefficients, i.e.
    -2 times the root of D_p with exp(-s n delay) pinned at 1.
    """
    table = delay_table(config)
    return (2.0 * sum(table.collective(+1).values()),
            2.0 * sum(table.collective(-1).values()))


@dataclass(frozen=True)
class Pole:
    """One converged decay pole.

    ``rate`` = 2i*delta = -2s is the collective rate: Re is the population
    decay rate, Im the collective frequency shift.  ``parity`` names the
    Laplace denominator D_p whose root this is, and ``residual`` is
    |D_p(s)|/gamma there.
    """

    delta: complex
    rate: complex
    parity: int
    residual: float
    iterations: int


def _newton(kernel: analytic.ParityKernel, s: complex, tol: float,
            max_iter: int) -> tuple[complex, float, int] | None:
    """Damped complex Newton on the kernel's D_p from ``s``.

    Returns (root, |D_p(root)|, iterations), or None when the derivative
    vanishes or ``max_iter`` steps leave |D_p| >= tol.  A step that fails to
    reduce |D_p| is halved, up to 60 times, before it is taken.
    """
    s = complex(s)
    f, df = kernel.evaluate(s)
    for it in range(max_iter):
        if abs(f) < tol:
            return s, abs(f), it
        if df == 0:
            return None
        step = -f / df
        for _ in range(60):
            s_new = s + step
            f_new, df_new = kernel.evaluate(s_new)
            if abs(f_new) <= abs(f) or abs(step) < 1e-16 * max(1.0, abs(s)):
                break
            step *= 0.5
        s, f, df = s_new, f_new, df_new
    return (s, abs(f), max_iter) if abs(f) < tol else None


def nonmarkovian_poles(config: SystemConfig) -> list[Pole]:
    """One decay pole per parity of the full retarded problem.

    Damped Newton on each D_p starts from that parity's Markovian pole
    s = -Gamma_M/2 and returns whichever root it reaches.  D_p has
    infinitely many roots, and once retardation matters (eta >~ 0.3) this
    is often not the root continuously connected to the Markovian pole:
    e.g. separate, eta = 0.832, phi = 5.855, parity +1 gives rate
    1.872 - 5.156i here but 0.019 - 2.481i from the eta ramp.  Use
    :func:`connected_pole` for the continuously connected pole.

    Newton stops at the residual |D_p(s)|/gamma < ``POLE_TOL`` and gives up
    after ``POLE_MAX_ITER`` iterations (damped steps count once).

    Returns:
        The symmetric (parity +1) and antisymmetric (-1) poles, in that
        order.

    Raises:
        NonConvergence: when a parity's iteration misses the target.
    """
    poles = []
    for parity in (+1, -1):
        kernel = analytic.parity_kernel(config, parity)
        seed = -complex(kernel.coeffs.sum())
        found = _newton(kernel, seed, POLE_TOL * config.gamma, POLE_MAX_ITER)
        if found is None:
            raise NonConvergence(
                f"no parity {parity:+d} root from seed {seed} after "
                f"{POLE_MAX_ITER} iterations")
        s, res, its = found
        poles.append(Pole(delta=1j * s, rate=-2.0 * s, parity=parity,
                          residual=res / config.gamma, iterations=its))
    return poles


@dataclass(frozen=True)
class DecayRateScan:
    """Collective rates versus the leg separation phase omega0*dx/pi.

    ``residual_plus``/``residual_minus`` hold |D_p(s)|/gamma at each
    point's pole s, with D_p built from that point's own config: a root
    check on the continuation's result, independent of its ramp.
    """

    omega0_dx_over_pi: np.ndarray
    rate_plus: np.ndarray        # complex non-Markovian Gamma_+
    rate_minus: np.ndarray
    markov_plus: np.ndarray      # complex Markovian Gamma_+,M
    markov_minus: np.ndarray
    residual_plus: np.ndarray    # |D_+(s)|/gamma at the Gamma_+ pole
    residual_minus: np.ndarray   # |D_-(s)|/gamma at the Gamma_- pole
    topology: str
    omega0: float
    gamma: float

    def peak(self) -> tuple[float, float]:
        """(omega0_dx/pi at peak, peak Re rate) over both parity branches."""
        re_all = np.maximum(self.rate_plus.real, self.rate_minus.real)
        i = int(np.argmax(re_all))
        return float(self.omega0_dx_over_pi[i]), float(re_all[i])

    def to_csv(self, path) -> None:
        write_csv(path,
                  ["giantqed collective decay rate scan",
                   f"topology = {self.topology}",
                   f"omega0 = {self.omega0!r}",
                   f"gamma = {self.gamma!r}"],
                  "omega0_dx_over_pi,re_g_plus_nm,im_g_plus_nm,re_g_minus_nm,"
                  "im_g_minus_nm,re_g_plus_m,re_g_minus_m,residual_plus,"
                  "residual_minus",
                  [self.omega0_dx_over_pi,
                   self.rate_plus.real, self.rate_plus.imag,
                   self.rate_minus.real, self.rate_minus.imag,
                   self.markov_plus.real, self.markov_minus.real,
                   self.residual_plus, self.residual_minus])


def connected_pole(config: SystemConfig, parity: int) -> complex:
    """The decay pole continuously connected to the Markovian one.

    Ramps the retardation up from zero at fixed phase phi: at each ramp
    step eta the lags of the parity kernel become n*eta/gamma (its A_n
    depend on phi and gamma only), and Newton re-converges the root of
    D_p from the previous one, to |D_p|/gamma < ``RAMP_TOL``, subdividing
    the ramp adaptively when the root moves fast.  The ramp starts from the
    Markovian pole s = -sum_n A_n.  Working per parity keeps the tracker
    from hopping onto the other parity family.  Returns the pole position s
    (rate = -2s).  Continuation along other parameter paths can land on a
    different sheet, so the ramp in retardation *is* the definition used
    here.
    """
    kernel = analytic.parity_kernel(config, parity)
    s = -complex(kernel.coeffs.sum())
    eta_t = config.delay * config.gamma
    if eta_t == 0:
        return s
    tol = RAMP_TOL * config.gamma

    def advance(eta0: float, s0: complex, eta1: float, depth: int = 0) -> complex:
        found = _newton(replace(kernel, delay=eta1 / config.gamma), s0, tol,
                        RAMP_MAX_ITER)
        root = None if found is None else found[0]
        if root is not None and abs(root - s0) <= 0.3 * (config.gamma + abs(s0)):
            return root
        if depth >= 24:
            if root is not None:
                return root
            raise NonConvergence(
                f"lost parity {parity:+d} branch at eta={eta1:.6f}")
        mid = 0.5 * (eta0 + eta1)
        return advance(mid, advance(eta0, s0, mid, depth + 1), eta1, depth + 1)

    for k in range(1, 17):                      # 16 coarse ramp steps
        s = advance(eta_t * (k - 1) / 16, s, eta_t * k / 16)
    return s


def scan_decay_rates(topology: str, n_points: int = 600, x_max: float = 3.0,
                     omega0: float = 50.0, gamma: float = 1.0,
                     v_g: float = 1.0, x_min: float | None = None) -> DecayRateScan:
    """Both parity poles over x = omega0*dx/pi in [x_min, x_max].

    omega0 is held fixed (default 50*gamma) while the leg spacing dx
    varies, so the retardation eta = pi*x*gamma/omega0 grows along the
    scan.  Each point reports the pole connected to the Markovian one
    (see ``connected_pole``) and, in the residual columns, |D_p(s)|/gamma
    at that pole for the point's own config.  ``x_min`` defaults to one
    grid step.
    """
    if x_min is None:
        x_min = x_max / n_points
    if not 0 < x_min <= x_max:
        raise ValueError("need 0 < x_min <= x_max")
    xs = np.linspace(x_min, x_max, n_points)
    # rows: rate +/-, Markovian rate +/-, residual +/-
    cols = np.empty((6, n_points), dtype=complex)
    for i, x in enumerate(xs):
        cfg = SystemConfig(topology=topology, gamma=gamma,
                           delay=x * math.pi / omega0, omega0=omega0, v_g=v_g)
        cols[2:4, i] = markovian_rates(cfg)
        for j, parity in enumerate((+1, -1)):
            root = connected_pole(cfg, parity)
            cols[j, i] = -2.0 * root            # Gamma = -2 s
            cols[4 + j, i] = abs(
                analytic.laplace_denominator(cfg, parity, root)) / gamma
    return DecayRateScan(xs, *cols[:4], *cols[4:].real, topology=topology,
                         omega0=omega0, gamma=gamma)
