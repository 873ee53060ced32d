import numpy as np
import pytest

from twoatom import qmat
from twoatom.model import (
    IntegratorConfig,
    ModelParams,
    StepTooLargeError,
    evolve_series,
    integrate,
    lindblad_rhs,
    liouvillian,
)
from twoatom.states import bell, product_state

from conftest import random_states

P_G1 = ModelParams(gamma0=1.0, g=1.0)


class TestModelParams:
    def test_gamma_is_product(self):
        p = ModelParams(gamma0=2.5, g=0.4)
        assert p.gamma == 2.5 * 0.4

    @pytest.mark.parametrize("gamma0,g", [(0.0, 0.5), (-1.0, 0.5), (1.0, -0.1), (1.0, 1.1)])
    def test_rejects_bad_rates(self, gamma0, g):
        with pytest.raises(ValueError):
            ModelParams(gamma0=gamma0, g=g)

    def test_config_rejects_bad_step(self):
        for step in (0.0, -1e-3, np.inf, np.nan):
            with pytest.raises(ValueError):
                IntegratorConfig(step=step)


class TestLindbladRhs:
    def test_ground_ground_stationary(self):
        rho = product_state(qmat.GROUND, qmat.GROUND)
        for params in (P_G1, ModelParams(1.0, 0.3), ModelParams(2.0, 0.0)):
            assert np.abs(lindblad_rhs(rho, params)).max() < 1e-15

    def test_antisymmetric_bell_stationary_at_g1(self):
        assert np.abs(lindblad_rhs(bell("psi_minus"), P_G1)).max() < 1e-15

    def test_doubly_excited_decay_rate(self):
        rho = product_state(qmat.EXCITED, qmat.EXCITED)
        out = lindblad_rhs(rho, P_G1)
        assert out[0, 0] == pytest.approx(-2.0, abs=1e-14)

    def test_traceless_and_hermitian(self):
        gen = np.random.default_rng(3)
        for rho in random_states(41, 20):
            params = ModelParams(gamma0=gen.uniform(0.5, 2.0), g=gen.uniform(0.0, 1.0))
            out = lindblad_rhs(rho, params)
            assert abs(np.trace(out)) < 1e-12
            assert np.abs(out - out.conj().T).max() < 1e-12

    def test_matches_superoperator_matrix(self):
        gen = np.random.default_rng(4)
        for rho in random_states(43, 10):
            params = ModelParams(gamma0=gen.uniform(0.5, 2.0), g=gen.uniform(0.0, 1.0))
            lv = liouvillian(params)
            direct = lindblad_rhs(rho, params)
            assert np.abs((lv @ rho.reshape(16)).reshape(4, 4) - direct).max() < 1e-13


class TestIntegrate:
    def test_zero_time_identity(self, rng):
        rho = qmat.random_density_matrix(rng)
        out = integrate(rho, P_G1, 0.0)
        assert np.array_equal(out, rho)

    def test_doubly_excited_population(self):
        rho = product_state(qmat.EXCITED, qmat.EXCITED)
        out = integrate(rho, P_G1, 1.0)
        assert out[0, 0].real == pytest.approx(np.exp(-2.0), abs=1e-10)

    def test_antisymmetric_bell_stable(self):
        rho = bell("psi_minus")
        for t in (0.5, 3.0):
            assert np.abs(integrate(rho, P_G1, t) - rho).max() < 1e-9

    def test_rejects_negative_time(self, rng):
        with pytest.raises(ValueError):
            integrate(qmat.random_density_matrix(rng), P_G1, -1.0)

    def test_output_is_valid_state(self):
        for rho in random_states(59, 5):
            qmat.validate_state(integrate(rho, P_G1, 1.3), atol=1e-7)

    def test_unstable_step_raises(self, rng):
        rho = qmat.random_density_matrix(rng)
        with pytest.raises(StepTooLargeError):
            integrate(rho, P_G1, 50.0, IntegratorConfig(step=5.0))

    def test_overflowing_step_raises(self):
        # a step of 1e80 overflows the step polynomial to inf and nan entries
        with pytest.raises(StepTooLargeError, match="minimum eigenvalue nan"):
            integrate(qmat.IDENTITY_4 / 4, P_G1, 1e80, IntegratorConfig(step=1e80))

    def test_unstable_step_reported_at_first_bad_time(self, rng):
        rho = qmat.random_density_matrix(rng)
        with pytest.raises(StepTooLargeError, match=r"^state at t=5 has minimum eigenvalue"):
            evolve_series(rho, P_G1, [0.0, 5.0, 10.0], IntegratorConfig(step=5.0))


def _rk4_loop(rho, params, t_grid, step):
    """Classical four-stage RK4 on lindblad_rhs, stepping sample to sample:
    whole steps of ``step`` plus one shorter remainder step per interval."""
    out, y, t_prev = [], np.asarray(rho, dtype=complex), 0.0
    for t in t_grid:
        n = int(np.floor((t - t_prev) / step + 1e-12))
        rem = (t - t_prev) - n * step
        for h in [step] * n + ([rem] if rem > 1e-15 else []):
            k1 = lindblad_rhs(y, params)
            k2 = lindblad_rhs(y + 0.5 * h * k1, params)
            k3 = lindblad_rhs(y + 0.5 * h * k2, params)
            k4 = lindblad_rhs(y + h * k3, params)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
        t_prev = t
    return np.array(out)


class TestEvolveSeries:
    def test_single_point_grid(self, rng):
        rho = qmat.random_density_matrix(rng)
        out = evolve_series(rho, P_G1, [0.0])
        assert out.shape == (1, 4, 4)
        assert np.array_equal(out[0], rho)

    def test_step_polynomial_matches_stagewise_rk4(self):
        # 1/6 is not a multiple of the step, so every interval ends in a remainder step
        grid = np.linspace(0.0, 1.0, 7)
        for g, rho in zip((0.0, 0.4, 1.0), random_states(62, 3)):
            params = ModelParams(1.3, g)
            series = evolve_series(rho, params, grid, IntegratorConfig(step=1e-2))
            assert series.shape == (7, 4, 4)
            assert np.abs(series - _rk4_loop(rho, params, grid, 1e-2)).max() <= 1e-13

    def test_doubly_excited_column(self):
        rho = product_state(qmat.EXCITED, qmat.EXCITED)
        out = evolve_series(rho, P_G1, [0.0, 1.0, 2.0])
        pops = [r[0, 0].real for r in out]
        assert pops == pytest.approx([1.0, np.exp(-2.0), np.exp(-4.0)], abs=1e-9)

    def test_matches_single_shot_integrate(self):
        grid = [0.0, 0.3, 0.7, 1.9]
        for rho in random_states(61, 5):
            series = evolve_series(rho, ModelParams(1.0, 0.6), grid)
            for t, r in zip(grid, series):
                single = integrate(rho, ModelParams(1.0, 0.6), t)
                assert np.abs(r - single).max() < 1e-10

    def test_rejects_unsorted_grid(self, rng):
        rho = qmat.random_density_matrix(rng)
        with pytest.raises(ValueError):
            evolve_series(rho, P_G1, [0.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            evolve_series(rho, P_G1, [-1.0, 2.0])


class TestSemigroupProperties:
    def test_composition(self):
        params = ModelParams(1.0, 0.8)
        for rho in random_states(67, 10):
            two_leg = integrate(integrate(rho, params, 0.7), params, 1.1)
            one_leg = integrate(rho, params, 1.8)
            assert np.abs(two_leg - one_leg).max() < 1e-7

    def test_linearity(self):
        params = ModelParams(1.0, 0.5)
        gen = np.random.default_rng(5)
        states = random_states(71, 10)
        for rho1, rho2 in zip(states[:5], states[5:]):
            lam = gen.uniform(0, 1)
            mixed = lam * rho1 + (1 - lam) * rho2
            lhs = integrate(mixed, params, 1.0)
            rhs = lam * integrate(rho1, params, 1.0) + (1 - lam) * integrate(
                rho2, params, 1.0
            )
            assert np.abs(lhs - rhs).max() < 1e-8

    def test_positivity_preserved(self):
        # 100 seeded initial states sampled at t in {0.1, 1, 5}/gamma0
        for rho in random_states(73, 100):
            for r in evolve_series(rho, P_G1, [0.1, 1.0, 5.0]):
                assert np.linalg.eigvalsh(0.5 * (r + r.conj().T))[0] >= -1e-7
