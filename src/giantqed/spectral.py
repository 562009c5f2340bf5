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

The pole continuously connected to the Markovian one is followed by a
ramp in the retardation eta at fixed phase.  One ramp serves any number of
systems: every pass of its loop is one damped Newton run as masked array
steps over a (systems x lags) coefficient matrix, taking each system's next
ramp step, coarse or halved.  ``connected_pole`` runs it on one system,
``scan_decay_rates`` on all its points at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .model import ConfigError, SystemConfig, delay_table, write_csv


#: Residual target |D_p(s)|/gamma and Newton iteration cap of each
#: ``connected_pole`` ramp step.
RAMP_TOL, RAMP_MAX_ITER = 1e-12, 100
#: Most trial points one evaluate of ``_newton``'s step-halving search takes.
_HALVING_BATCH = 2 ** 14


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
    nan; the limit is smooth, so any neighbouring detuning gives it.  Every
    entry whose |D_p| is below the smallest normal float (a detuning of
    about 1e-308 or less next to the resonance) is that same nan, without
    a warning: its subnormal D_p no longer resolves the shared zero.
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
    with np.errstate(invalid="ignore"):
        for p in (+1, -1):
            den = analytic.laplace_denominator(config, p, -1j * dk)
            den = np.where(np.abs(den) < np.finfo(float).tiny, np.nan, den)
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
    return tuple(2.0 * complex(table.collective(p, config.phi).sum())
                 for p in (+1, -1))


def _newton(kernel: analytic.ParityKernel, s, tol: float):
    """Damped complex Newton on every row of a row kernel's D_p at once.

    Each row iterates from its own entry of ``s`` exactly as it would
    alone: it stops once |D_p| < tol, gives up when the derivative
    vanishes or ``RAMP_MAX_ITER`` steps leave |D_p| >= tol.  A step that
    fails to reduce |D_p| takes its first halving (of 59) that does or that
    falls below 1e-16*max(1, |s|), else the 59th; the halvings of all such
    rows go through one evaluate, ``_HALVING_BATCH`` points at a time.
    Rows that stop drop out of the array work.

    Returns:
        (roots, iterations, converged), one entry per row.
    """
    s = np.array(s, dtype=complex)
    f, df = kernel.evaluate(s)
    roots = s.copy()
    iterations = np.full(s.size, RAMP_MAX_ITER)
    converged = np.zeros(s.size, dtype=bool)
    rows = np.arange(s.size)                    # rows still iterating
    for it in range(RAMP_MAX_ITER):
        res = np.abs(f)
        stop = (res < tol) | (df == 0)
        if stop.any():
            done = rows[stop]
            roots[done] = s[stop]
            converged[done], iterations[done] = res[stop] < tol, it
            keep = ~stop
            rows, s, f, df, res = rows[keep], s[keep], f[keep], df[keep], res[keep]
            kernel = kernel.rows(keep)
        if not rows.size:
            return roots, iterations, converged
        with np.errstate(invalid="ignore", over="ignore"):
            step = -f / df
        floor = 1e-16 * np.maximum(1.0, np.abs(s))
        s_new = s + step
        f, df = kernel.evaluate(s_new)
        pending = np.flatnonzero(~((np.abs(f) <= res) | (np.abs(step) < floor)))
        group = max(1, _HALVING_BATCH // 59)
        for lo in range(0, pending.size, group):
            i = pending[lo:lo + group]
            halved = np.empty((i.size, 59), dtype=complex)
            h = step[i]
            for k in range(59):
                h *= 0.5
                halved[:, k] = h
            trial = s[i, None] + halved
            f_k, df_k = (v.reshape(trial.shape) for v in
                         kernel.rows(np.repeat(i, 59)).evaluate(trial.ravel()))
            ok = (np.abs(f_k) <= res[i, None]) | (np.abs(halved) < floor[i, None])
            ok[:, -1] = True                    # else the 59th halving
            pick = np.arange(i.size), ok.argmax(axis=1)
            s_new[i], f[i], df[i] = trial[pick], f_k[pick], df_k[pick]
        s = s_new
    roots[rows], converged[rows] = s, np.abs(f) < tol
    return roots, iterations, converged


def _ramp(kernel: analytic.ParityKernel, eta: np.ndarray, gamma: float,
          parity: int):
    """Continue each row's Markovian pole up to that row's retardation.

    Row i of the row kernel holds one system's A_n; its lags are
    n*eta/gamma at ramp position eta.  Every row starts from s = -sum_n A_n
    and steps to the 16 coarse targets eta[i]*k/16, each step re-converging
    the root of D_p from the last accepted (eta, s) to |D_p|/gamma <
    ``RAMP_TOL``.  A step is accepted when Newton converges and the root
    moved at most 0.3*(gamma + |s|); a rejected one is replaced, on the
    row's stack of pending targets (its row of one (rows, width) array),
    by its two halves, the nearer first, down to 24 halvings, where a
    converged root is taken.  Each pass runs one batched Newton over every
    unfinished row's next target.  Rows with eta = 0 keep the Markovian
    pole.

    Returns:
        (s, iterations, subdivisions) per row: the pole, the Newton
        iterations spent on it, and how many intervals were halved (0 when
        every coarse step was accepted).

    Raises:
        NonConvergence: when a row's step still fails after 24 halvings.
    """
    tol = RAMP_TOL * gamma
    s = -np.atleast_2d(kernel.coeffs).sum(axis=-1)
    iterations = np.zeros(s.size, dtype=int)
    subdivisions = np.zeros(s.size, dtype=int)
    reached = np.zeros(s.size)              # eta of each row's root s
    coarse = np.where(eta > 0, 1, 17).astype(np.int8)   # next coarse k
    pending = np.zeros(s.size, dtype=np.int8)   # halved targets per row
    # row i's stack of halved targets, eta and depth, with its top at
    # column pending[i] - 1 (int8 depths keep a large scan's state small)
    halves, depths = np.empty((s.size, 0)), np.empty((s.size, 0), np.int8)
    rows = np.flatnonzero(coarse <= 16)
    while rows.size:
        halved = pending[rows] > 0
        tops = rows[halved], pending[rows[halved]] - 1
        target = eta[rows] * coarse[rows] / 16
        depth = np.zeros(rows.size, dtype=np.int8)
        target[halved], depth[halved] = halves[tops], depths[tops]
        # s[rows] unnamed: no second copy of the roots is held during Newton
        root, its, ok = _newton(kernel.rows(rows, target / gamma), s[rows],
                                tol)
        iterations[rows] += its
        take = ok & (np.abs(root - s[rows]) <= 0.3 * (gamma + np.abs(s[rows])))
        lost = ~ok & (depth >= 24)
        if lost.any():
            raise NonConvergence(f"lost parity {parity:+d} branch at "
                                 f"eta={target[lost][0]:.6g}")
        take |= depth >= 24
        s[rows[take]], reached[rows[take]] = root[take], target[take]
        coarse[rows[~halved]] += 1
        # every top is popped; a rejected target is pushed back one level
        # deeper, under its midpoint from the last accepted eta
        pending[tops[0]] -= 1
        split = rows[~take]
        if split.size:
            subdivisions[split] += 1
            target, top = target[~take], pending[split].astype(int)
            if top.max() + 2 > halves.shape[1]:
                widen = ((0, 0), (0, top.max() + 2 - halves.shape[1]))
                halves, depths = np.pad(halves, widen), np.pad(depths, widen)
            push = split[:, None], top[:, None] + [0, 1]
            halves[push] = np.stack((target, 0.5 * (reached[split] + target)), -1)
            depths[push] = depth[~take, None] + 1
            pending[split] += 2
        rows = rows[(coarse[rows] <= 16) | (pending[rows] > 0)]
    return s, iterations, subdivisions


@dataclass(frozen=True)
class DecayRateScan:
    """Collective rates versus the leg separation phase omega0*dx/pi.

    ``residual_plus``/``residual_minus`` hold |D_p(s)|/gamma at each
    point's pole s, with D_p from the point's own row of A_n and delay: a
    root check on the continuation's result, independent of its ramp.

    The ramp's health figures are kept per point and parity but not
    written to the CSV: ``iterations_*`` counts the Newton iterations the
    point's ramp spent and ``subdivisions_*`` how many ramp intervals were
    halved (0 when every coarse step was accepted).
    """

    omega0_dx_over_pi: np.ndarray
    rate_plus: np.ndarray        # complex non-Markovian Gamma_+
    rate_minus: np.ndarray
    markov_plus: np.ndarray      # complex Markovian Gamma_+,M
    markov_minus: np.ndarray
    residual_plus: np.ndarray    # |D_+(s)|/gamma at the Gamma_+ pole
    residual_minus: np.ndarray   # |D_-(s)|/gamma at the Gamma_- pole
    iterations_plus: np.ndarray
    iterations_minus: np.ndarray
    subdivisions_plus: np.ndarray
    subdivisions_minus: np.ndarray
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

    Ramps the retardation up from zero at fixed phase phi: at ramp
    position eta the lags of the parity kernel become n*eta/gamma (its A_n
    depend on phi and gamma only), and Newton re-converges the root of D_p
    from the previous one, to |D_p|/gamma < ``RAMP_TOL``.  The ramp starts
    from the Markovian pole s = -sum_n A_n and takes 16 equal eta steps,
    halving a step while Newton fails or the root jumps by more than
    0.3*(gamma + |s|).  Working per parity keeps the tracker from hopping
    onto the other parity family.  Returns the pole position s
    (rate = -2s).  Continuation along other parameter paths can land on a
    different sheet, so the ramp in retardation *is* the definition used
    here.  It is one row of the ramp ``scan_decay_rates`` runs for all its
    points at once: each point takes the same steps it would take alone.
    """
    s, _, _ = _ramp(analytic.parity_kernel(config, parity),
                    np.array([config.eta]), config.gamma, parity)
    return complex(s[0])


#: ln of the largest float: the scan needs eta*n <= this for every lag n,
#: so that exp(-s n delay) stays finite for |s| up to gamma.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def scan_decay_rates(topology: str, n_points: int = 600, x_max: float = 3.0,
                     omega0: float = 50.0, gamma: float = 1.0,
                     v_g: float = 1.0, x_min: float | None = None) -> DecayRateScan:
    """Both parity poles over x = omega0*dx/pi in [x_min, x_max].

    omega0 is held fixed (default 50*gamma) while the leg spacing dx
    varies, so the retardation eta = pi*x*gamma/omega0 grows along the
    scan.  Each point reports the pole connected to the Markovian one (see
    ``connected_pole``) and, in the residual columns, |D_p(s)|/gamma at
    that pole for the point's own config.  ``x_min`` defaults to one grid
    step.

    One batched ramp per parity serves every point: the A_n(phi) =
    a_n exp(i n phi) of all points come from one phase-free delay table as
    one (points x lags) matrix, and each pass of the ramp is one masked
    Newton over every point's next step, coarse or halved, as in
    ``connected_pole``: about 0.04 s for the README's 600 points and both
    parities, 0.08 s at omega0 = 2, on a 2 vCPU Xeon.  The Markovian
    columns are 2*sum_n A_n from the same matrix, and each residual
    evaluates the point's own row.

    Raises:
        ConfigError: on an empty or non-positive x range, an unknown
            topology, or a largest eta with eta*n > ln(float max) ~ 709.78
            for the longest lag n, where the exponentials would overflow.
    """
    if n_points < 1:
        raise ConfigError(f"n_points must be at least 1, got {n_points!r}")
    if x_min is None:
        x_min = x_max / n_points
    if not 0 < x_min <= x_max:
        raise ConfigError("need 0 < x_min <= x_max")
    if not 0 < omega0 < math.inf:
        raise ConfigError(f"omega0 must be positive and finite, got {omega0!r}")
    # the table depends on topology, legs and gamma only: the scan's system
    # at zero spacing, where every ramp starts, gives every point's table
    table = delay_table(SystemConfig(topology=topology, gamma=gamma,
                                     delay=0.0, omega0=omega0, v_g=v_g))
    eta_max = x_max * math.pi / omega0 * gamma
    if not eta_max * table.max_step <= _LOG_FLOAT_MAX:
        raise ConfigError(
            f"the scan's largest retardation eta = pi*x*gamma/omega0 = "
            f"{eta_max:.6g} at x = {x_max:.6g} is out of range: "
            f"eta*{table.max_step} must stay <= {_LOG_FLOAT_MAX:.6g}; raise "
            "omega0 (--omega0) or lower the x range (--scan)")
    xs = np.linspace(x_min, x_max, n_points)
    delays = xs * math.pi / omega0
    eta = delays * gamma
    rates, markov, residuals, iterations, subdivisions = [], [], [], [], []
    for parity in (+1, -1):
        coeffs = table.collective(parity, omega0 * delays)
        kernel = analytic.ParityKernel(coeffs, delays)
        s, its, subs = _ramp(kernel, eta, gamma, parity)
        rates.append(-2.0 * s)                  # Gamma = -2 s
        markov.append(2.0 * coeffs.sum(axis=-1))
        iterations.append(its)
        subdivisions.append(subs)
        dens = kernel.evaluate(s)[0].tolist()
        residuals.append(np.array([abs(d) / gamma for d in dens]))
    return DecayRateScan(xs, *rates, *markov, *residuals, *iterations,
                         *subdivisions, topology=topology, omega0=omega0,
                         gamma=gamma)
