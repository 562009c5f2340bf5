"""Config validation, leg geometry and the retarded coupling tables."""

import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import giantqed
from giantqed import model
from giantqed.analytic import exact_solution
from giantqed.dde import DriveSchedule
from giantqed.model import (ConfigError, InitialState, SystemConfig,
                            TOPOLOGIES, delay_table, write_csv)


# ---------------------------------------------------------------------------
# SystemConfig
# ---------------------------------------------------------------------------

def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SystemConfig(topology="ring")
    with pytest.raises(ValueError):
        SystemConfig(topology="separate", gamma=0.0)
    with pytest.raises(ValueError):
        SystemConfig(topology="separate", delay=-1.0)
    with pytest.raises(ValueError):
        SystemConfig(topology="separate", n_legs=0)
    with pytest.raises(ValueError):
        SystemConfig(topology="separate", v_g=0.0)


@pytest.mark.parametrize("field", ["gamma", "delay", "omega0", "v_g"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SystemConfig(topology="separate", **{field: value})


@pytest.mark.parametrize("c_a, c_b", [(math.nan, 0.0), (0.0, math.inf),
                                      (complex(0.1, math.nan), 0.0)])
def test_initial_state_rejects_non_finite_amplitudes(c_a, c_b):
    with pytest.raises(ValueError, match="finite"):
        InitialState(c_a, c_b)


def test_from_phase_round_trip():
    cfg = SystemConfig.from_phase("braided", eta=0.25, phi=1.7, gamma=2.0)
    assert cfg.eta == pytest.approx(0.25, rel=1e-15)
    assert cfg.phi == pytest.approx(1.7, rel=1e-15)
    assert cfg.gamma == 2.0
    with pytest.raises(ValueError):
        SystemConfig.from_phase("braided", eta=0.0, phi=0.0)


@pytest.mark.parametrize("field", ["eta", "phi", "gamma"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_from_phase_names_its_non_finite_input(field, value):
    args = {"eta": 0.2, "phi": 1.0, "gamma": 1.0, field: value}
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        SystemConfig.from_phase("separate", args["eta"], args["phi"],
                                gamma=args["gamma"])


def test_config_refuses_a_last_lag_phase_past_the_float_range():
    """The coupling table forms n*phi up to the last lag 2N - 1: omega0 and
    delay whose (2N - 1)*omega0*delay overflows are refused by name, at
    numpy scalars and under a raising errstate too; one that stays finite
    builds its table.  ``from_phase`` names phi, the value its caller
    passed."""
    for kwargs in ({"omega0": 1e308}, {"omega0": np.float64(1e308)},
                   {"omega0": 5e307, "n_legs": 3},
                   {"omega0": 1e200, "delay": 1e200}):
        with np.errstate(over="raise"), \
                pytest.raises(ConfigError, match="omega0.*delay"):
            SystemConfig(topology="separate", **kwargs)
    for phi in (1e308, np.float64(1e308)):
        with np.errstate(over="raise"), \
                pytest.raises(ConfigError, match=r"phi = .*\(2N - 1\)\*phi"):
            SystemConfig.from_phase("braided", eta=1.0, phi=phi)
    cfg = SystemConfig(topology="separate", omega0=5e307)
    assert np.all(np.isfinite(delay_table(cfg).phases(cfg.phi)))


def test_validators_raise_config_errors():
    """Every rejected system, state or schedule is the caller's input."""
    for make in (lambda: SystemConfig(topology="ring"),
                 lambda: SystemConfig(topology="separate", gamma=-1.0),
                 lambda: SystemConfig.from_phase("separate", 0.2, 1.0,
                                                 gamma=0.0),
                 lambda: SystemConfig.from_phase("separate", -0.2, 1.0),
                 lambda: InitialState(1.0, 1.0),
                 lambda: DriveSchedule((0.0, 1.0), (1.0, math.nan)),
                 lambda: DriveSchedule((0.5,), (1.0,))):
        with pytest.raises(ConfigError):
            make()


def test_leg_slots_and_positions():
    sep = SystemConfig(topology="separate", delay=0.5, v_g=2.0)
    assert sep.leg_slots(0) == (0, 1)
    assert sep.leg_slots(1) == (2, 3)
    # spacing d = v_g*delay = 1, centred about x = 0
    assert sep.leg_positions(0) == (-1.5, -0.5)
    assert sep.leg_positions(1) == (0.5, 1.5)

    br = SystemConfig(topology="braided", delay=0.5, v_g=2.0)
    assert br.leg_slots(0) == (0, 2)
    assert br.leg_slots(1) == (1, 3)
    assert br.leg_positions(0) == (-1.5, 0.5)
    with pytest.raises(ConfigError):
        br.leg_slots(2)


def test_phase_class():
    mk = lambda phi: SystemConfig.from_phase("separate", 0.2, phi)
    assert mk(2 * math.pi).phase_class() == 0
    assert mk(4 * math.pi).phase_class() == 0
    assert mk(math.pi).phase_class() == 1
    assert mk(3 * math.pi).phase_class() == 1
    assert mk(0.3).phase_class() is None
    assert mk(2.5 * math.pi).phase_class() is None


def test_initial_states():
    sym = InitialState.symmetric()
    asym = InitialState.antisymmetric()
    assert sym.parity == +1
    assert asym.parity == -1
    assert sym.norm() == pytest.approx(1.0)
    assert InitialState(1.0, 0.0).parity is None
    with pytest.raises(ValueError):
        InitialState(1.0, 1.0)  # norm 2
    # parity is exact: 1e-13 off symmetric is two channels, and the zero
    # state has none
    near = InitialState(0.6, 0.6 + 1e-13)
    assert near.channels == (1, -1) and near.parity is None
    zero = InitialState(0.0, 0.0)
    assert zero.channels == () and zero.parity is None
    cfg = SystemConfig.from_phase("braided", eta=0.2, phi=1.0)
    with pytest.raises(ConfigError):
        exact_solution(cfg, near, t_max=1.0)


def test_analytic_does_not_import_dde():
    """The series takes its schedule from model: importing it leaves the
    integrator unloaded."""
    code = "import sys, giantqed.analytic; print('giantqed.dde' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(giantqed.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_field_does_not_import_dde():
    """The emitted field takes its record contract from model: importing
    it leaves the integrator unloaded."""
    code = "import sys, giantqed.field; print('giantqed.dde' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(giantqed.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_the_mode_sum_lives_in_field():
    """dde holds the integrator only: its two mode-sum names are field's
    own objects, and the rest of the mode sum is not defined there."""
    from giantqed import dde, field
    assert dde.field_amplitudes is field.field_amplitudes
    assert dde.frequency_grid is field.frequency_grid
    for name in ("_nufft_sums", "_filon_terms", "excitation_balance"):
        assert not hasattr(dde, name), name
    assert dde.GRID_END_SLACK is model.GRID_END_SLACK


# ---------------------------------------------------------------------------
# DelayTable: frozen two-leg tables
# ---------------------------------------------------------------------------
# Ordered leg pairs at slot distance n contribute gamma/2 at lag n, and the
# propagation phase e^{i n phi} multiplies them.  For N = 2 legs/atom the
# expected tables follow by counting pairs on the slot diagrams  a a b b
# (separate)  and  a b a b  (braided); the values below were frozen from
# that count at gamma = 1, phi = 0.7.

E = cmath.exp


def _phased(tab, phi):
    """(self, cross) coefficients with the propagation phase applied."""
    return tab.self_terms * tab.phases(phi), tab.cross_terms * tab.phases(phi)


def _brute_force_terms(cfg):
    """(self, cross) by counting ordered leg pairs one at a time."""
    a, b = cfg.leg_slots(0), cfg.leg_slots(1)
    return tuple([sum(abs(i - j) == n for i in a for j in src)
                  * (0.5 * cfg.gamma) for n in range(2 * cfg.n_legs)]
                 for src in (a, b))


def test_separate_table_frozen():
    cfg = SystemConfig(topology="separate", gamma=1.0, delay=0.5, omega0=1.4)
    tab = delay_table(cfg)
    p = cfg.phi
    assert p == pytest.approx(0.7)
    assert np.flatnonzero(tab.self_terms).tolist() == [0, 1]
    assert np.flatnonzero(tab.cross_terms).tolist() == [1, 2, 3]
    self_terms, cross_terms = _phased(tab, p)
    assert self_terms[0] == pytest.approx(1.0)
    assert self_terms[1] == pytest.approx(E(1j * p))
    assert cross_terms[1] == pytest.approx(0.5 * E(1j * p))
    assert cross_terms[2] == pytest.approx(E(2j * p))
    assert cross_terms[3] == pytest.approx(0.5 * E(3j * p))
    # spot-frozen numerics
    assert cross_terms[2] == pytest.approx(0.16996714290024104
                                           + 0.9854497299884601j)
    assert tab.max_step == 3


def test_braided_table_frozen():
    cfg = SystemConfig(topology="braided", gamma=1.0, delay=0.5, omega0=1.4)
    tab = delay_table(cfg)
    p = cfg.phi
    assert np.flatnonzero(tab.self_terms).tolist() == [0, 2]
    assert np.flatnonzero(tab.cross_terms).tolist() == [1, 3]
    self_terms, cross_terms = _phased(tab, p)
    assert self_terms[2] == pytest.approx(E(2j * p))
    assert cross_terms[1] == pytest.approx(1.5 * E(1j * p))
    assert cross_terms[3] == pytest.approx(0.5 * E(3j * p))


def test_collective_split():
    cfg = SystemConfig(topology="separate", gamma=1.0, delay=0.2, omega0=0.0)
    tab = delay_table(cfg)
    plus = tab.collective(+1, cfg.phi)
    minus = tab.collective(-1, cfg.phi)
    assert plus.tolist() == [1.0, 1.5, 1.0, 0.5]
    assert minus.tolist() == [1.0, 0.5, -1.0, -0.5]
    with pytest.raises(ConfigError):
        tab.collective(0, cfg.phi)


def test_three_leg_table():
    # N = 3 separate: slots a a a b b b; ordered self pairs at distances
    # {0,1,2} have multiplicities {3,4,2}, cross 1..5 have {1,2,3,2,1}.
    cfg = SystemConfig(topology="separate", gamma=1.0, delay=0.3,
                       omega0=0.0, n_legs=3)
    tab = delay_table(cfg)
    assert tab.self_terms.tolist() == [1.5, 2.0, 1.0, 0.0, 0.0, 0.0]
    assert tab.cross_terms.tolist() == [0.0, 0.5, 1.0, 1.5, 1.0, 0.5]


@given(n_legs=st.integers(min_value=1, max_value=6),
       topology=st.sampled_from(TOPOLOGIES),
       gamma=st.floats(min_value=0.1, max_value=5.0))
def test_sum_rule(n_legs, topology, gamma):
    """At phi = 0 all 2N legs interfere constructively: the ordered-pair
    count gives sum_n A_n(+1) = (2N)^2 * gamma / 4 regardless of the
    interleaving (population rate 2*sum = Dicke value).  The table is that
    count, pair by pair."""
    cfg = SystemConfig(topology=topology, gamma=gamma, delay=0.1,
                       omega0=0.0, n_legs=n_legs)
    tab = delay_table(cfg)
    assert (tab.self_terms.tolist(), tab.cross_terms.tolist()) == \
        _brute_force_terms(cfg)
    total = tab.collective(+1, cfg.phi).sum()
    assert total.imag == pytest.approx(0.0, abs=1e-12)
    assert total.real == pytest.approx((2 * n_legs) ** 2 * gamma / 4,
                                       rel=1e-12)


@given(n_legs=st.integers(min_value=1, max_value=6),
       topology=st.sampled_from(TOPOLOGIES),
       phi=st.floats(min_value=-7.0, max_value=7.0))
def test_parity_split_identity(n_legs, topology, phi):
    """A_n(+1) + A_n(-1) = 2*self_n for every lag, any phase."""
    delay = 0.25
    cfg = SystemConfig(topology=topology, gamma=1.0, delay=delay,
                       omega0=phi / delay, n_legs=n_legs)
    tab = delay_table(cfg)
    assert (tab.self_terms.tolist(), tab.cross_terms.tolist()) == \
        _brute_force_terms(cfg)
    plus = tab.collective(+1, cfg.phi)
    minus = tab.collective(-1, cfg.phi)
    self_terms, _ = _phased(tab, cfg.phi)
    for n in range(2 * n_legs):
        assert plus[n] + minus[n] == pytest.approx(2 * self_terms[n])


def test_table_phases_carry_propagation_phase():
    # every coefficient at lag n must point along e^{i n phi}
    cfg = SystemConfig.from_phase("braided", eta=0.4, phi=0.9)
    tab = delay_table(cfg)
    for terms in _phased(tab, cfg.phi):
        for n, v in enumerate(terms.tolist()):
            if v:
                assert cmath.phase(v * cmath.exp(-1j * n * cfg.phi)) == \
                    pytest.approx(0.0, abs=1e-12)
    # a row of an array of phases is the scalar phase's, bit for bit
    rows = tab.collective(-1, np.array([0.3, cfg.phi, -2.0]))
    assert np.array_equal(rows[1], tab.collective(-1, cfg.phi))
    # an array of parities is a leading axis, each row its parity's, bit
    # for bit
    both = tab.collective((+1, -1), np.array([0.3, cfg.phi, -2.0]))
    assert both.shape == (2, 3, 4) and np.array_equal(both[1], rows)
    assert np.array_equal(both[0, 1], tab.collective(+1, cfg.phi))
    with pytest.raises(ConfigError):
        tab.collective((+1, 0), cfg.phi)


# ---------------------------------------------------------------------------
# write_csv
# ---------------------------------------------------------------------------

def _csv_oracle(path, comments, header, columns):
    """The per-row writer ``write_csv`` replaced: one "%r" per cell."""
    cols = [np.asarray(col) for col in columns]
    fmt = ",".join(["%r"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write("".join(f"# {c}\n" for c in comments) + header + "\n")
        for start in range(0, len(cols[0]), 4096):
            rows = zip(*(col[start:start + 4096].tolist() for col in cols))
            fh.write("".join([fmt % row for row in rows]))


#: Signed zeros, NaNs with two payloads, infinities, subnormals, the
#: smallest normal, and both sides of repr's switches to exponent notation.
_ADVERSARIAL = np.array(
    [-0.0, 0.0, np.nan, np.array(0x7FF8000000000001).view(float), np.inf,
     -np.inf, 5e-324, -1e-310, 2.2250738585072014e-308, 1e16,
     9999999999999998.0, 1e-5, 0.0001, 9.999999999999999e-05, 0.1, 1 / 3,
     -2.5, 1e300])

_N_COLS = 6
_CHUNK_ROWS = model._CSV_CHUNK // _N_COLS
#: chunk rows with the two reuse columns added
_WIDE_ROWS = model._CSV_CHUNK // (_N_COLS + 2)


@pytest.mark.parametrize("n", [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS,
                               _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 3])
def test_write_csv_matches_a_repr_per_cell(tmp_path, n):
    rng = np.random.default_rng(n)
    sizes = rng.integers(1, 9, size=n)
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)[:n]
    columns = [
        np.resize(_ADVERSARIAL, n),
        rng.permutation(np.resize(_ADVERSARIAL, n)),
        # a short cycle, so values repeat across every chunk boundary
        0.5 * (np.arange(n) % 7) - 1.0,
        # int64 row and column indices: must stay "0", not "0.0"
        np.repeat(np.arange(n), sizes)[:n],
        np.arange(n) - starts,
        # a Python list, like the exact-series population columns
        [abs(v) ** 2 for v in rng.standard_normal(n).tolist()],
    ]
    assert len(columns) == _N_COLS
    reuse = [
        # the fdd map's x column: one axis tiled, so every full chunk holds
        # the same distinct values and reuses their strings
        np.tile(np.linspace(-1.7, 1.7, 41), n // 41 + 1)[:n],
        # four distinct values per chunk, different in every chunk: reuse
        # keyed on the count alone would repeat the first chunk's strings
        np.arange(n) // _WIDE_ROWS + 0.25 * (np.arange(n) % 4),
    ]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    comments = ["writer check", f"n = {n}"]
    for cols, header in ((columns, "a,b,c,l,j,pop"),
                         (columns + reuse, "a,b,c,l,j,pop,x,k")):
        write_csv(got, comments, header, cols)
        _csv_oracle(want, comments, header, cols)
        assert got.read_bytes() == want.read_bytes()
        if n:
            assert got.read_text().splitlines()[3].split(",")[3] == "0"
