"""Physical description of two multi-leg emitters coupled to a linear waveguide.

Two identical two-level emitters ("atom a" and "atom b") attach to a 1D
waveguide at several coupling legs each.  Adjacent legs are separated by a
fixed propagation delay ``delay`` (time for light to travel between
neighbouring coupling points), and the two atoms' legs are interleaved in one
of two ways:

* ``"separate"`` -- all of atom a's legs sit to the left of all of atom b's
  (ordering a1 a2 ... b1 b2 ...),
* ``"braided"``  -- the legs alternate (a1 b1 a2 b2 ...).

Everything downstream (delay equations, spectra, bound states, emitted
fields) is parameterised by the dimensionless retardation ``eta = gamma*delay``
and the propagation phase ``phi = omega0*delay`` accumulated between legs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

TOPOLOGIES = ("separate", "braided")

#: Error budget for "is this phase an exact multiple of pi" decisions.
PHASE_TOL = 1e-9


class ConfigError(ValueError):
    """An invalid system, initial state or drive schedule: the caller's input."""


@dataclass(frozen=True)
class SystemConfig:
    """Static parameters of the two-atom/waveguide system.

    Attributes:
        topology: leg interleaving, ``"separate"`` or ``"braided"``.
        gamma: per-leg emission rate into the waveguide (both directions).
        delay: propagation time between adjacent coupling legs.
        omega0: atomic transition frequency.
        n_legs: number of coupling legs per atom (N >= 1).
        v_g: group velocity in the waveguide.

    Non-finite values, and an omega0 and delay whose phase
    (2N - 1)*omega0*delay at the coupling table's last lag overflows,
    raise ConfigError.
    """

    topology: str
    gamma: float = 1.0
    delay: float = 1.0
    omega0: float = 0.0
    n_legs: int = 2
    v_g: float = 1.0

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ConfigError(f"topology must be one of {TOPOLOGIES}, got {self.topology!r}")
        for name in ("gamma", "delay", "omega0", "v_g"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.gamma <= 0:
            raise ConfigError("gamma must be positive")
        if self.delay < 0:
            raise ConfigError("delay must be non-negative")
        if self.n_legs < 1:
            raise ConfigError("n_legs must be at least 1")
        if self.v_g <= 0:
            raise ConfigError("v_g must be positive")
        if self.delay > 0 and not 0 < self.spacing < math.inf:
            raise ConfigError("the leg spacing v_g*delay is out of the float range")
        # the coupling table's phases n*phi run to the last lag, 2N - 1
        if not math.isfinite(float(self.omega0) * float(self.delay)
                             * (2 * self.n_legs - 1)):
            raise ConfigError(f"omega0 = {self.omega0!r} and delay = "
                              f"{self.delay!r} put the last lag's phase "
                              "(2N - 1)*omega0*delay out of the float range")

    # -- derived quantities -------------------------------------------------

    @property
    def eta(self) -> float:
        """Dimensionless retardation gamma*delay."""
        return self.gamma * self.delay

    @property
    def phi(self) -> float:
        """Propagation phase omega0*delay between adjacent legs."""
        return self.omega0 * self.delay

    @property
    def k0(self) -> float:
        """Resonant wavenumber omega0/v_g."""
        return self.omega0 / self.v_g

    @property
    def spacing(self) -> float:
        """Distance d = v_g*delay between adjacent legs."""
        return self.v_g * self.delay

    @classmethod
    def from_phase(cls, topology: str, eta: float, phi: float, *,
                   gamma: float = 1.0, v_g: float = 1.0,
                   n_legs: int = 2) -> "SystemConfig":
        """Build a config from (eta, phi) by back-solving delay and omega0.

        ``delay = eta/gamma`` and ``omega0 = phi/delay``; handy when a target
        phase (e.g. exactly 2*pi) matters more than the raw frequency.  A
        phi whose last lag's phase (2N - 1)*phi overflows raises ConfigError
        naming phi.
        """
        for name, value in (("eta", eta), ("phi", phi), ("gamma", gamma)):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite")
        # the coupling table's phases n*phi run to the last lag, 2N - 1
        if not math.isfinite(float(phi) * (2 * n_legs - 1)):
            raise ConfigError(f"phi = {phi!r} puts the last lag's phase "
                              "(2N - 1)*phi out of the float range")
        if eta <= 0 or gamma <= 0 or eta / gamma == 0:
            raise ConfigError("from_phase requires eta > 0, gamma > 0 and "
                              "eta/gamma > 0 (use delay=0 directly for eta = 0)")
        delay = eta / gamma
        return cls(topology=topology, gamma=gamma, delay=delay,
                   omega0=phi / delay, n_legs=n_legs, v_g=v_g)

    # -- geometry -----------------------------------------------------------

    def leg_slots(self, atom: int) -> tuple[int, ...]:
        """Integer slot indices (0..2N-1, left to right) occupied by one atom.

        ``atom`` is 0 for atom a, 1 for atom b.
        """
        if atom not in (0, 1):
            raise ConfigError("atom must be 0 (a) or 1 (b)")
        n = self.n_legs
        if self.topology == "separate":
            return tuple(range(atom * n, atom * n + n))
        return tuple(range(atom, 2 * n, 2))

    def leg_positions(self, atom: int) -> tuple[float, ...]:
        """Physical leg coordinates of one atom, centred so x=0 is mid-array."""
        half = (2 * self.n_legs - 1) / 2.0
        d = self.spacing
        return tuple((s - half) * d for s in self.leg_slots(atom))

    def phase_class(self) -> int | None:
        """Classify phi against multiples of pi: 0 (even), 1 (odd) or None.

        Returns 0 when phi is an even multiple of pi, 1 when odd, None when
        phi is not a multiple of pi (within PHASE_TOL of a multiple).
        """
        m = self.phi / math.pi
        n = round(m)
        if abs(m - n) > PHASE_TOL:
            return None
        return n % 2

    def summary_lines(self) -> list[str]:
        """Config echo used in CSV headers, one 'key = value' string each."""
        return [
            f"topology = {self.topology}",
            f"gamma = {self.gamma!r}",
            f"delay = {self.delay!r}",
            f"omega0 = {self.omega0!r}",
            f"n_legs = {self.n_legs}",
            f"v_g = {self.v_g!r}",
            f"eta = {self.eta!r}",
            f"phi = {self.phi!r}",
        ]


@dataclass(frozen=True)
class InitialState:
    """Single-excitation atomic state (c_a, c_b) at t=0 with no photons."""

    c_a: complex
    c_b: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.c_a) and cmath.isfinite(self.c_b)):
            raise ConfigError("initial amplitudes must be finite")
        if self.norm() > 1.0 + 1e-9:
            raise ConfigError("initial amplitudes exceed unit norm")

    def norm(self) -> float:
        return abs(self.c_a) ** 2 + abs(self.c_b) ** 2

    @classmethod
    def symmetric(cls) -> "InitialState":
        s = 1.0 / math.sqrt(2.0)
        return cls(s, s)

    @classmethod
    def antisymmetric(cls) -> "InitialState":
        s = 1.0 / math.sqrt(2.0)
        return cls(s, -s)

    @property
    def channels(self) -> tuple[int, ...]:
        """Parities p, +1 first, of the channels y_p = (c_a + p*c_b)/2 that
        start nonzero: exactly, so that a dropped one is exactly 0."""
        return tuple(p for p in (+1, -1) if self.c_a + p * self.c_b != 0)

    @property
    def parity(self) -> int | None:
        """The one live channel's parity, +1 or -1; None for two or none."""
        return self.channels[0] if len(self.channels) == 1 else None


@dataclass(frozen=True)
class DriveSchedule:
    """Piecewise-constant transition frequency omega0(t).

    ``starts`` must begin at 0.0 and increase; ``omegas[i]`` applies on
    [starts[i], starts[i+1]).
    """

    starts: tuple[float, ...]
    omegas: tuple[float, ...]

    def __post_init__(self):
        if len(self.starts) != len(self.omegas) or not self.starts:
            raise ConfigError("schedule needs matching, non-empty starts/omegas")
        if not all(math.isfinite(v) for v in (*self.starts, *self.omegas)):
            raise ConfigError("schedule times and frequencies must be finite")
        if self.starts[0] != 0.0:
            raise ConfigError("first schedule segment must start at t=0")
        if any(b <= a for a, b in zip(self.starts, self.starts[1:])):
            raise ConfigError("schedule start times must strictly increase")

    @classmethod
    def constant(cls, omega0: float) -> "DriveSchedule":
        return cls((0.0,), (float(omega0),))

    @classmethod
    def switch_at(cls, t_switch: float, omega_before: float,
                  omega_after: float) -> "DriveSchedule":
        return cls((0.0, float(t_switch)), (float(omega_before), float(omega_after)))

    def window_phase(self, t, width) -> np.ndarray:
        """Int_{t-width}^t omega0(s) ds, the schedule's one phase accumulator:
        each segment's omega times its overlap with the window, measured back
        from t.  It rounds to a few ulp of the window phase itself;
        Omega(t) - Omega(t - width) would carry those of Omega(t).  The
        absolute phase Omega(t) is ``window_phase(t, t)`` (omega*t bit for
        bit on one segment).  ``t`` and ``width >= 0`` broadcast; a window
        reaching before 0 extends segment 0."""
        t = np.asarray(t, dtype=float)
        total = np.zeros(np.broadcast_shapes(t.shape, np.shape(width)))
        ends = (*self.starts[1:], math.inf)
        for k, (omega, end) in enumerate(zip(self.omegas, ends)):
            # the overlap runs from `near` to `far` before t
            near = np.maximum(t - end, 0.0)
            far = np.minimum(t - self.starts[k], width) if k else width
            total += omega * np.maximum(far - near, 0.0)
        return total


#: Fraction of a step by which a run may end short of its t_max: the last
#: node is the first one past t_max - GRID_END_SLACK*h.  Queries up to that
#: far beyond the last node are legal and clamp to it.
GRID_END_SLACK = 1e-9


class AmplitudeRecord:
    """Contract of both amplitude records, ``dde.AmplitudeTrajectory`` and
    ``analytic.ExpPolySolution``: ``config``, initial ``state``, drive
    ``schedule`` and ``channel_values(t)``, the live channels y_p(t) as
    (channel, *t.shape) up to ``horizon``; a later or NaN time raises
    ConfigError.  :meth:`atomic` maps them to the atoms."""

    @property
    def channels(self) -> tuple[int, ...]:
        """The live channels of ``state``."""
        return self.state.channels

    @property
    def parity(self) -> int | None:
        """The exchange parity of ``state``."""
        return self.state.parity

    def atoms(self, y: np.ndarray, atom: int | None = None):
        """The one map from channel rows y, (channel, ...), to (c_a, c_b) =
        (sum_p y_p, sum_p p*y_p), or with ``atom`` (0 for a, 1 for b) that
        atom's row alone: y and p*y for one channel, y_+ + y_- and y_+ - y_-
        for two, zeros for none."""
        if atom is None:
            return self.atoms(y, 0), self.atoms(y, 1)
        if len(y) == 1:
            return self.channels[0] * y[0] if atom else y[0]
        if not len(y):
            return np.zeros(y.shape[1:], complex)
        return y[0] - y[1] if atom else y[0] + y[1]

    def atomic(self, t, atom: int | None = None):
        """(c_a(t), c_b(t)), or with ``atom`` (0 for a, 1 for b) that atom's
        amplitude alone: complex numbers at a scalar time, else arrays."""
        values = self.atoms(self.channel_values(t), atom)
        if np.ndim(t) == 0:
            return tuple(map(complex, values)) if atom is None else complex(values)
        return values


@dataclass(frozen=True)
class DelayTable:
    """Phase-free retarded coupling coefficients of the amplitude equations.

    With Theta_n = Theta(t - n*delay) (unit step), in the interaction picture

        dc_a/dt = -sum_n e^{i n phi} self_terms[n]  c_a(t - n*delay) Theta_n
                  -sum_n e^{i n phi} cross_terms[n] c_b(t - n*delay) Theta_n

    and the same with a<->b swapped.  Entry n (lag n*delay, n = 0..2N-1) is
    gamma/2 times the ordered leg pairs n slots apart, so the table depends
    on topology, legs and gamma only; exp(i n phi) comes from :meth:`phases`
    alone.  The instantaneous term is self_terms[0] = N*gamma/2.
    """

    self_terms: np.ndarray
    cross_terms: np.ndarray

    @property
    def max_step(self) -> int:
        return len(self.self_terms) - 1

    def phases(self, phi) -> np.ndarray:
        """exp(i n phi) for every lag n: shape (2N,) for a scalar phi, one
        such row per entry of an array phi."""
        lags = np.arange(len(self.self_terms))
        return np.exp(1j * np.multiply.outer(phi, lags))

    def collective(self, parity, phi) -> np.ndarray:
        """Coefficients A_n of the parity-reduced scalar equation at phase phi.

        For c_b = parity * c_a the pair of equations collapses to
        dc/dt = -sum_n A_n c(t - n*delay) with A_n = (self_n +
        parity*cross_n) exp(i n phi); one row per phase, as in
        :meth:`phases`.  An array of parities (each +1 or -1) is a leading
        axis: the shape is (*parity.shape, *phi.shape, 2N).
        """
        if not set(np.ravel(parity).tolist()) <= {+1, -1}:
            raise ConfigError("parity must be +1 or -1")
        parity = np.reshape(parity, np.shape(parity) + (1,) * (np.ndim(phi) + 1))
        return (self.self_terms + parity * self.cross_terms) * self.phases(phi)


def delay_table(config: SystemConfig) -> DelayTable:
    """Count retarded leg pairs to build the DelayTable for ``config``.

    Every ordered pair of legs (one on the receiving atom, one on the
    emitting atom) separated by n slots adds gamma/2 at lag n.  Working
    with integer slot indices keeps the lags exact.
    """
    slots_a = np.array(config.leg_slots(0))
    gaps = [np.abs(slots_a[:, None] - config.leg_slots(atom)).ravel()
            for atom in (0, 1)]
    return DelayTable(*(np.bincount(g, minlength=2 * config.n_legs)
                        * (0.5 * config.gamma) for g in gaps))


#: Values (rows x columns) formatted per write in ``write_csv``; bounds the
#: memory a large field map or trajectory takes while it is written: a chunk
#: holds at most this many value strings, whatever the column count.
_CSV_CHUNK = 4096


def _reprs(values: np.ndarray, previous=None):
    """repr of every entry of a 1-D array, formatting each distinct value once.

    Values are told apart by their bit pattern, so -0.0 and 0.0 (and NaN
    payloads) stay distinct, and they are converted back to the array's own
    dtype, so an integer column still reads ``0``.  Returns the strings and
    the chunk's (distinct bits, their reprs); passed back as ``previous``
    with the next chunk of the same column, the reprs are reused when that
    chunk holds exactly the same distinct values (a tiled map axis).
    """
    distinct, inverse = np.unique(values.view(f"u{values.itemsize}"),
                                  return_inverse=True)
    if previous is None or not np.array_equal(previous[0], distinct):
        text = repr(distinct.view(values.dtype).tolist())[1:-1].split(", ")
        previous = distinct, np.array(text, dtype=object)
    return previous[1][inverse].tolist(), previous


def write_csv(path, comments, header: str, columns) -> None:
    """Write a CSV file: '# '-prefixed comment lines, a header, then rows.

    ``columns`` are equal-length sequences of real numbers, one per header
    field.  Values are written with repr, so floats read back exactly.
    Rows go out in chunks of at most ``_CSV_CHUNK`` values (rows x
    columns).  Within a chunk each column's distinct values are formatted
    once, in one repr of their list, and scattered back to their rows; a
    column whose distinct values repeat those of its previous chunk reuses
    their strings.  The bytes are the same as from a repr per cell.
    """
    cols = [np.asarray(col) for col in columns]
    rows = max(1, _CSV_CHUNK // len(cols))
    last = [None] * len(cols)
    with open(path, "w") as fh:
        fh.write("".join(f"# {c}\n" for c in comments) + header + "\n")
        for start in range(0, len(cols[0]), rows):
            fields = []
            for i, col in enumerate(cols):
                strings, last[i] = _reprs(col[start:start + rows], last[i])
                fields.append(strings)
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")
