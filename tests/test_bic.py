"""Bound-state construction: existence classes, weights and the field norm."""

import math

import numpy as np
import pytest

from giantqed import bic
from giantqed.bic import (BicState, NoBic, bic_field_profile, bic_state,
                          field_norm, overlap_with_initial)
from giantqed.model import ConfigError, InitialState, SystemConfig


def _cfg(topology, phi, eta=0.2, n_legs=2):
    return SystemConfig.from_phase(topology, eta=eta, phi=phi, n_legs=n_legs)


def test_existence_classes():
    assert bic_state(_cfg("separate", 2 * math.pi))
    assert bic_state(_cfg("separate", 3 * math.pi))
    assert bic_state(_cfg("braided", 2 * math.pi))
    assert bic_state(_cfg("braided", 4 * math.pi))
    assert not bic_state(_cfg("braided", 3 * math.pi))
    assert not bic_state(_cfg("separate", 2.31 * math.pi))
    assert not bic_state(_cfg("braided", 0.5 * math.pi))
    verdict = bic_state(_cfg("braided", 3 * math.pi))
    assert isinstance(verdict, NoBic)
    assert verdict.phi == pytest.approx(3 * math.pi)


def test_atomic_amplitudes_by_class():
    """Three weight classes at eta = 0.2: the even-pi separate state keeps
    1/(2(1+3 eta)) per atom, every other existing class 1/(2(1+eta))."""
    eta = 0.2
    heavy = bic_state(_cfg("separate", 2 * math.pi, eta))
    assert abs(heavy.epsilon1) ** 2 == pytest.approx(1.0 / 3.2, rel=1e-12)
    assert heavy.epsilon2 == -heavy.epsilon1
    assert heavy.phase_class == 0
    for topology, phi in (("separate", 3 * math.pi), ("braided", 2 * math.pi)):
        light = bic_state(_cfg(topology, phi, eta))
        assert abs(light.epsilon1) ** 2 == pytest.approx(1.0 / 2.4, rel=1e-12)
    assert bic_state(_cfg("separate", 3 * math.pi, eta)).phase_class == 1
    assert bic_state(_cfg("braided", 2 * math.pi, eta)).phase_class == 0


def test_weights_are_complementary():
    for topology, phi in (("separate", 2 * math.pi), ("separate", 5 * math.pi),
                          ("braided", 6 * math.pi)):
        for eta in (0.05, 0.2, 1.0):
            state = bic_state(_cfg(topology, phi, eta))
            assert state.atomic_weight + state.field_weight == pytest.approx(
                1.0, rel=1e-12)
    heavy = bic_state(_cfg("separate", 2 * math.pi, 0.2))
    assert heavy.field_weight == pytest.approx(0.6 / 1.6, rel=1e-12)
    light = bic_state(_cfg("braided", 2 * math.pi, 0.2))
    assert light.field_weight == pytest.approx(0.2 / 1.2, rel=1e-12)


def test_overlap_with_initial_states():
    eta = 0.2
    state = bic_state(_cfg("separate", 2 * math.pi, eta))
    anti = overlap_with_initial(state, InitialState.antisymmetric())
    # |<BIC|anti>|^2 = |sqrt(2) eps1|^2 = 2|eps1|^2
    assert anti == pytest.approx(2.0 / 3.2, rel=1e-12)
    assert overlap_with_initial(state, InitialState.symmetric()) == \
        pytest.approx(0.0, abs=1e-15)
    light = bic_state(_cfg("braided", 2 * math.pi, eta))
    assert overlap_with_initial(light, InitialState.antisymmetric()) == \
        pytest.approx(2.0 / 2.4, rel=1e-12)
    # long-time population = overlap^2 / ... = overlap * atomic fraction
    survive = overlap_with_initial(state, InitialState.antisymmetric()) \
        * state.atomic_weight
    assert survive == pytest.approx(0.390625, rel=1e-12)


def test_profile_is_finite_and_peaked_at_resonance():
    state = bic_state(_cfg("separate", 2 * math.pi, 0.3))
    k0 = state.k0
    v_at_k0 = state.intensity(np.array([k0]))[0]
    assert np.isfinite(v_at_k0) and v_at_k0 > 0.0
    # the 0/0 patch must join the neighbouring values smoothly
    v_near = state.intensity(k0 * (1.0 + 1e-12))
    assert v_near == pytest.approx(v_at_k0, rel=1e-6)
    # intensity decays away from the resonant wavenumber
    d = state.config.spacing
    assert state.intensity(k0 + 30.0 / d) < v_at_k0 / 100.0


def test_field_norm_converges_to_field_weight():
    for topology, phi, eta, n_legs in (("separate", 2 * math.pi, 0.2, 2),
                                       ("separate", 3 * math.pi, 0.35, 2),
                                       ("braided", 2 * math.pi, 0.15, 2),
                                       ("separate", 2 * math.pi, 0.2, 3),
                                       ("braided", 2 * math.pi, 0.2, 3)):
        state = bic_state(_cfg(topology, phi, eta, n_legs))
        norm = field_norm(state)
        assert norm == pytest.approx(state.field_weight, abs=1e-6)


def test_field_norm_cells_resolve_the_integrand(monkeypatch):
    """The default cell count is converged far below the window error."""
    configs = [("separate", 2 * math.pi, 0.2, 2),
               ("separate", 3 * math.pi, 0.35, 2),
               ("braided", 2 * math.pi, 0.15, 2),
               ("separate", 2 * math.pi, 0.2, 3),
               ("braided", 2 * math.pi, 0.2, 3),
               ("braided", 2 * math.pi, 0.2, 2),
               ("separate", 2 * math.pi, 0.2, 4),
               ("braided", 2 * math.pi, 0.2, 4),
               ("separate", 2 * math.pi, 5.0, 2)]
    states = [bic_state(_cfg(*c)) for c in configs]
    default = [field_norm(state) for state in states]
    monkeypatch.setattr(bic, "_NORM_CELLS", 10 * bic._NORM_CELLS)
    for state, norm in zip(states, default):
        assert norm == pytest.approx(field_norm(state), abs=1e-8)


def test_field_norm_plain_window_converges_like_one_over_width():
    state = bic_state(_cfg("separate", 2 * math.pi, 0.2))
    d = state.config.spacing
    errs = [abs(field_norm(state, half_width=lam / d, extrapolate=False)
                - state.field_weight) for lam in (50.0, 100.0, 200.0)]
    assert errs[0] > errs[1] > errs[2]
    # O(1/L): halving the error each doubling, within oscillatory wiggle
    assert errs[2] < errs[0] / 2.5
    assert errs[2] > 1e-5          # plain truncation genuinely needs the fix


def test_field_profile_csv_and_running_norm(tmp_path):
    state = bic_state(_cfg("braided", 2 * math.pi, 0.25))
    profile = bic_field_profile(state)
    assert profile.cumulative_norm[0] == 0.0
    assert np.all(np.diff(profile.cumulative_norm) >= 0.0)
    # the default window already captures most of the trapped field
    assert profile.cumulative_norm[-1] == pytest.approx(state.field_weight,
                                                        rel=0.05)
    path = tmp_path / "profile.csv"
    profile.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,intensity,cumulative_norm"
    assert len(lines) == 1 + len(profile.k)
    k0_col = np.array([float(line.split(",")[0]) for line in lines[1:]])
    assert np.array_equal(k0_col, profile.k)
    with pytest.raises(ConfigError):
        bic_field_profile(state, k_grid=np.array([1.0]))

