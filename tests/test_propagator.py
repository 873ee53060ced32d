import numpy as np
import pytest

from twoatom import qmat
from twoatom.entanglement import concurrence
from twoatom.model import ModelParams, evolve_series, integrate, lindblad_rhs
from twoatom.propagator import (
    AsymptoticParams,
    DegenerateRatesError,
    asymptotic_params,
    asymptotic_state,
    c_max,
    evolve_bell_general,
    evolve_excited_ground_general,
    evolve_g1,
    stationary_matrix,
    t_gamma,
)
from twoatom.states import bell, bell_diagonal, product_state, werner

from conftest import random_states


class TestEvolveG1:
    def test_zero_time_identity(self):
        for rho in random_states(83, 5):
            assert np.abs(evolve_g1(rho, 1.0, 0.0) - rho).max() < 1e-12

    def test_secular_term_feeds_single_excitation(self):
        # starting doubly excited, the only contribution to entry (2,2) at
        # time t is the secular gamma0*t*exp(-2*gamma0*t) term
        rho = product_state(qmat.EXCITED, qmat.EXCITED)
        out = evolve_g1(rho, 1.0, 1.0)
        assert out[1, 1].real == pytest.approx(np.exp(-2.0), abs=1e-14)

    def test_matches_rk4_oracle(self):
        params = ModelParams(1.0, 1.0)
        worst = 0.0
        for rho in random_states(89, 50):
            series = evolve_series(rho, params, [0.3, 1.0, 3.0])
            for t, numeric in zip([0.3, 1.0, 3.0], series):
                closed = evolve_g1(rho, 1.0, t)
                worst = max(worst, np.abs(closed - numeric).max())
        assert worst < 1e-6

    def test_outputs_are_valid_states(self):
        for rho in random_states(97, 10):
            for t in (0.2, 1.0, 7.0):
                out = evolve_g1(rho, 1.0, t)
                qmat.validate_state(out, atol=1e-9)
                assert abs(np.trace(out) - 1.0) < 1e-12
                assert np.abs(out - out.conj().T).max() < 1e-12

    def test_converges_to_stationary_state(self):
        for rho in random_states(101, 20):
            late = evolve_g1(rho, 1.0, 50.0)
            assert np.abs(late - asymptotic_state(rho)).max() < 1e-8


class TestStackedTimes:
    def test_array_time_stacks_per_time_states(self):
        grid = np.linspace(0.0, 4.0, 9)
        rho = random_states(109, 1)[0]
        cases = [
            lambda t: evolve_g1(rho, 1.3, t),
            lambda t: evolve_excited_ground_general(1.3, 0.6, t),
            lambda t: evolve_bell_general(-1, 1.3, 0.6, t),
        ]
        for fn in cases:
            stack = fn(grid)
            assert stack.shape == (9, 4, 4)
            assert fn(grid[3]).shape == (4, 4)
            for t, m in zip(grid, stack):
                assert np.abs(m - fn(t)).max() <= 1e-15


class TestAsymptoticMap:
    def test_excited_ground_params(self):
        pars = asymptotic_params(product_state(qmat.EXCITED, qmat.GROUND))
        assert pars.alpha == pytest.approx(0.25, abs=1e-15)
        assert pars.beta == 0

    def test_werner_params(self):
        for p in np.linspace(0, 1, 11):
            pars = asymptotic_params(werner(p))
            assert pars.alpha == pytest.approx((1 - p) / 8, abs=1e-12)
            assert pars.beta == 0

    def test_singlet_params(self):
        pars = asymptotic_params(bell("psi_minus"))
        assert pars.alpha == pytest.approx(0.5, abs=1e-15)
        assert pars.beta == 0

    def test_doubly_excited_relaxes_to_ground(self):
        out = asymptotic_state(product_state(qmat.EXCITED, qmat.EXCITED))
        assert np.allclose(out, product_state(qmat.GROUND, qmat.GROUND), atol=1e-15)

    def test_excited_ground_matrix(self):
        out = asymptotic_state(product_state(qmat.EXCITED, qmat.GROUND))
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = expected[2, 2] = 0.25
        expected[1, 2] = expected[2, 1] = -0.25
        expected[3, 3] = 0.5
        assert np.allclose(out, expected, atol=1e-15)

    def test_bell_diagonal_matrix(self, rng):
        for _ in range(10):
            p = rng.dirichlet(np.ones(4))
            out = asymptotic_state(bell_diagonal(*p))
            assert out[1, 1].real == pytest.approx(p[3] / 2, abs=1e-12)
            assert out[1, 2].real == pytest.approx(-p[3] / 2, abs=1e-12)
            assert out[3, 3].real == pytest.approx(1 - p[3], abs=1e-12)

    def test_stationary_under_generator(self):
        params = ModelParams(1.0, 1.0)
        for rho in random_states(103, 30):
            stat = asymptotic_state(rho)
            qmat.validate_state(stat, atol=1e-12)
            assert np.abs(lindblad_rhs(stat, params)).max() < 1e-10

    def test_params_range_enforced(self):
        with pytest.raises(ValueError):
            AsymptoticParams(alpha=0.7, beta=0.0)


class TestExcitedGroundGeneral:
    def test_initial_state(self):
        out = evolve_excited_ground_general(1.0, 0.5, 0.0)
        assert np.allclose(out, product_state(qmat.EXCITED, qmat.GROUND), atol=1e-15)

    def test_coherence_magnitude(self):
        # |off-diagonal| = exp(-gamma0 t) sinh(gamma t) / 2 at gamma0=1, gamma=0.5, t=1
        out = evolve_excited_ground_general(1.0, 0.5, 1.0)
        expected = 0.5 * np.exp(-1.0) * np.sinh(0.5)
        assert abs(out[1, 2]) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.09585012489105091, abs=1e-15)

    @pytest.mark.parametrize("g", [0.3, 0.7, 0.99])
    def test_matches_rk4_oracle(self, g):
        params = ModelParams(1.0, g)
        rho0 = product_state(qmat.EXCITED, qmat.GROUND)
        for t in (0.5, 2.0):
            numeric = integrate(rho0, params, t)
            closed = evolve_excited_ground_general(1.0, g, t)
            assert np.abs(closed - numeric).max() < 1e-6

    def test_outputs_valid(self):
        for t in np.linspace(0, 8, 9):
            qmat.validate_state(evolve_excited_ground_general(1.0, 0.8, t), atol=1e-12)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            evolve_excited_ground_general(1.0, 1.0, 0.5)


class TestBellGeneral:
    def test_initial_states(self):
        assert np.allclose(evolve_bell_general(+1, 1.0, 0.9, 0.0), bell("psi_plus"), atol=1e-15)
        assert np.allclose(evolve_bell_general(-1, 1.0, 0.9, 0.0), bell("psi_minus"), atol=1e-15)

    def test_subradiant_stability_at_equal_rates(self):
        rho = bell("psi_minus")
        for t in (0.5, 4.0):
            assert np.abs(evolve_bell_general(-1, 1.0, 1.0, t) - rho).max() < 1e-15

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_matches_rk4_oracle(self, sign):
        params = ModelParams(1.0, 0.99)
        rho0 = bell("psi_plus" if sign > 0 else "psi_minus")
        for t in (1.0, 5.0):
            numeric = integrate(rho0, params, t)
            closed = evolve_bell_general(sign, 1.0, 0.99, t)
            assert np.abs(closed - numeric).max() < 1e-6

    def test_superradiant_reduces_to_g1_propagator(self):
        rho0 = bell("psi_plus")
        for t in (0.3, 1.0, 2.5):
            a = evolve_bell_general(+1, 1.0, 1.0, t)
            b = evolve_g1(rho0, 1.0, t)
            assert np.abs(a - b).max() < 1e-10

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            evolve_bell_general(0, 1.0, 0.5, 1.0)


class TestPeak:
    def test_half_exchange_values(self):
        assert t_gamma(1.0, 0.5) == pytest.approx(np.log(3.0), abs=1e-15)
        assert c_max(1.0, 0.5) == pytest.approx(3.0**-1.5, abs=1e-15)

    def test_peak_value_consistent_with_curve(self):
        tg = t_gamma(1.0, 0.5)
        assert c_max(1.0, 0.5) == pytest.approx(
            np.exp(-tg) * np.sinh(0.5 * tg), abs=1e-15
        )

    @pytest.mark.parametrize("g", [0.2, 0.5, 0.9])
    def test_grid_search_oracle(self, g):
        ts = np.arange(0.0, 20.0, 1e-4)
        vals = np.exp(-ts) * np.sinh(g * ts)
        i = int(np.argmax(vals))
        assert abs(ts[i] - t_gamma(1.0, g)) < 1e-4
        assert abs(vals[i] - c_max(1.0, g)) < 1e-4

    def test_rejects_degenerate_rates(self):
        with pytest.raises(DegenerateRatesError):
            t_gamma(1.0, 1.0)
        with pytest.raises(DegenerateRatesError):
            c_max(1.0, 1.2)
        with pytest.raises(ValueError):
            t_gamma(1.0, 0.0)


class TestConcurrenceAlongFlow:
    def test_excited_ground_concurrence_grows_like_sinh(self):
        # Wootters concurrence of the evolved matrix equals
        # exp(-gamma0 t) sinh(gamma0 t) = (1 - exp(-2 gamma0 t))/2 at g = 1
        rho0 = product_state(qmat.EXCITED, qmat.GROUND)
        for t in np.linspace(0.0, 5.0, 26):
            c = concurrence(evolve_g1(rho0, 1.0, t))
            assert c == pytest.approx(np.exp(-t) * np.sinh(t), abs=1e-10)

    def test_stationary_concurrence_doubles_alpha(self):
        for rho in random_states(107, 30):
            pars = asymptotic_params(rho)
            assert concurrence(stationary_matrix(pars)) == pytest.approx(
                2 * abs(pars.alpha), abs=1e-10
            )
