import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoatom import entanglement, qmat
from twoatom.model import ModelParams
from twoatom.propagator import asymptotic_params, evolve
from twoatom.states import (
    BELL_NAMES,
    bell,
    bell_diagonal,
    mems,
    mems_h,
    mes,
    product_state,
    purity,
    werner,
)

from conftest import random_pure_state, random_qubit_vector, state_defect


def _e(j):
    m = np.zeros((4, 4), dtype=complex)
    m[j, j] = 1.0
    return m


class TestProductState:
    def test_excited_ground_sits_at_e2(self):
        rho = product_state(qmat.EXCITED, qmat.GROUND)
        assert np.allclose(rho, _e(1), atol=1e-15)

    def test_both_excited_sits_at_e1(self):
        rho = product_state(qmat.EXCITED, qmat.EXCITED)
        assert np.allclose(rho, _e(0), atol=1e-15)

    def test_is_rank_one(self, rng):
        rho = product_state(random_qubit_vector(rng), random_qubit_vector(rng))
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            product_state(np.array([1.0, 1.0]), qmat.GROUND)

    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="psi must be normalized"):
            product_state(np.array([bad, 0.0]), qmat.GROUND)
        with pytest.raises(ValueError, match="phi must be normalized"):
            product_state(qmat.GROUND, np.array([0.6, bad]))

    def test_stationary_params_match_overlap_formula(self, rng):
        # alpha = (1 - |<psi, phi>|^2)/4, beta = (|phi2|^2 psi1 conj(psi2)
        #                                         - |psi2|^2 phi1 conj(phi2))/2
        for _ in range(20):
            psi = random_qubit_vector(rng)
            phi = random_qubit_vector(rng)
            pars = asymptotic_params(product_state(psi, phi))
            alpha_ref = 0.25 * (1.0 - abs(np.vdot(psi, phi)) ** 2)
            beta_ref = 0.5 * (
                abs(phi[1]) ** 2 * psi[0] * np.conj(psi[1])
                - abs(psi[1]) ** 2 * phi[0] * np.conj(phi[1])
            )
            assert pars.alpha == pytest.approx(alpha_ref, abs=1e-12)
            assert pars.beta == pytest.approx(beta_ref, abs=1e-12)


class TestBell:
    @pytest.mark.parametrize("which", BELL_NAMES)
    def test_maximally_entangled(self, which):
        assert entanglement.concurrence(bell(which)) == pytest.approx(1.0, abs=1e-12)

    def test_antisymmetric_state_is_g1_fixed_point(self):
        rho = bell("psi_minus")
        for t in (0.5, 2.0, 10.0):
            assert np.abs(evolve(rho, ModelParams(1.0, 1.0), t) - rho).max() < 1e-12

    def test_reduced_state_maximally_mixed(self):
        red = qmat.partial_trace(bell("phi_plus"), "A")
        assert np.allclose(red, qmat.IDENTITY_2 / 2, atol=1e-12)

    @pytest.mark.parametrize("which", BELL_NAMES)
    def test_valid_states(self, which):
        assert state_defect(bell(which)) <= 1e-12

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            bell("sigma_plus")


class TestMes:
    def test_reduces_to_symmetric_bell_state(self):
        assert np.abs(mes(0.0, 0.0, 0.0) - bell("psi_plus")).max() < 1e-15

    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 2 * np.pi),
        st.floats(0.0, 2 * np.pi),
    )
    def test_rank_one_for_any_parameters(self, a, th1, th2):
        rho = mes(a, th1, th2)
        assert state_defect(rho) <= 1e-12
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_stationary_params_match_phase_formula(self, rng):
        # alpha = (1-a^2)(1-cos(th1-th2))/4, beta = a sqrt(1-a^2)(e^{-i th1}-e^{-i th2})/4
        for _ in range(20):
            a = rng.uniform(0.0, 1.0)
            th1, th2 = rng.uniform(0.0, 2 * np.pi, size=2)
            pars = asymptotic_params(mes(a, th1, th2))
            alpha_ref = 0.25 * (1 - a**2) * (1 - np.cos(th1 - th2))
            beta_ref = (
                0.25 * a * np.sqrt(1 - a**2) * (np.exp(-1j * th1) - np.exp(-1j * th2))
            )
            assert pars.alpha == pytest.approx(alpha_ref, abs=1e-12)
            assert pars.beta == pytest.approx(beta_ref, abs=1e-12)

    def test_rejects_bad_amplitude(self):
        with pytest.raises(ValueError):
            mes(1.2, 0.0, 0.0)

    @pytest.mark.parametrize("args", [(np.nan, 0.0, 0.0), (0.3, np.nan, 0.0), (0.3, 0.0, np.nan),
                                      (0.3, np.inf, 0.0), (0.3, 0.0, -np.inf)])
    def test_rejects_non_finite_parameters(self, args):
        with pytest.raises(ValueError, match=r"^need a in \[0, 1\] and finite phases"):
            mes(*args)


class TestBellDiagonal:
    def test_uniform_is_maximally_mixed(self):
        rho = bell_diagonal(0.25, 0.25, 0.25, 0.25)
        assert np.allclose(rho, qmat.IDENTITY_4 / 4, atol=1e-15)

    def test_dominant_weight_concurrence(self):
        rho = bell_diagonal(0.8, 0.1, 0.1, 0.0)
        assert entanglement.concurrence(rho) == pytest.approx(0.6, abs=1e-12)

    def test_stationary_concurrence_is_last_weight(self, rng):
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            rho = bell_diagonal(*p)
            assert entanglement.asymptotic_concurrence(rho) == pytest.approx(
                p[3], abs=1e-12
            )

    def test_separable_iff_no_weight_above_half(self, rng):
        rho = bell_diagonal(0.5, 0.3, 0.1, 0.1)
        assert entanglement.is_ppt_separable(rho)
        rho = bell_diagonal(0.1, 0.6, 0.2, 0.1)
        assert not entanglement.is_ppt_separable(rho)
        assert entanglement.concurrence(rho) == pytest.approx(0.2, abs=1e-12)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="probability vector"):
            bell_diagonal(0.5, 0.5, 0.5, -0.5)
        with pytest.raises(ValueError, match="probability vector"):
            bell_diagonal(0.3, 0.3, 0.3, 0.2)

    @pytest.mark.parametrize("weights", [(np.nan, 0.5, 0.5, 0.0), (0.5, 0.5, 0.0, np.nan),
                                         (np.nan,) * 4])
    def test_rejects_non_finite_weights(self, weights):
        with pytest.raises(ValueError, match="probability vector"):
            bell_diagonal(*weights)


class TestWerner:
    def test_endpoints(self):
        assert np.allclose(werner(0.0), qmat.IDENTITY_4 / 4, atol=1e-15)
        assert np.allclose(werner(1.0), bell("phi_plus"), atol=1e-15)

    def test_concurrence_formula(self):
        assert entanglement.concurrence(werner(2.0 / 3.0)) == pytest.approx(
            0.5, abs=1e-12
        )
        for p in np.linspace(0.0, 1.0, 21):
            expected = max(0.0, (3 * p - 1) / 2)
            assert entanglement.concurrence(werner(p)) == pytest.approx(
                expected, abs=1e-10
            )

    def test_separable_iff_p_below_third(self):
        assert entanglement.is_ppt_separable(werner(0.3))
        assert not entanglement.is_ppt_separable(werner(0.5))
        # exact threshold: PT eigenvalue crosses zero at p = 1/3
        assert entanglement.is_ppt_separable(werner(1.0 / 3.0))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            werner(1.5)


class TestMems:
    def test_weight_function_branches_meet(self):
        assert mems_h(0.0) == pytest.approx(1.0 / 3.0)
        assert mems_h(2.0 / 3.0) == pytest.approx(1.0 / 3.0)
        assert mems_h(np.nextafter(2.0 / 3.0, 1.0)) == pytest.approx(
            1.0 / 3.0, abs=1e-12
        )
        assert mems_h(1.0) == pytest.approx(0.5)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_weight_range_and_validity(self, delta):
        assert 1.0 / 3.0 <= mems_h(delta) <= 0.5
        assert state_defect(mems(delta)) <= 1e-12

    def test_zero_corner_case(self):
        rho = mems(0.0)
        assert np.allclose(rho, np.diag([1 / 3, 1 / 3, 0, 1 / 3]), atol=1e-15)
        assert entanglement.concurrence(rho) == pytest.approx(0.0, abs=1e-12)

    def test_full_corner_is_bell_like(self):
        rho = mems(1.0)
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)
        assert entanglement.concurrence(rho) == pytest.approx(1.0, abs=1e-12)

    def test_concurrence_equals_delta(self):
        for delta in np.linspace(0.0, 1.0, 21):
            assert entanglement.concurrence(mems(delta)) == pytest.approx(
                delta, abs=1e-10
            )

    def test_stationary_concurrence(self):
        for delta in np.linspace(0.0, 1.0, 21):
            expected = 0.5 * (1 - 2 * mems_h(delta))
            assert entanglement.asymptotic_concurrence(mems(delta)) == pytest.approx(
                expected, abs=1e-12
            )
        assert entanglement.asymptotic_concurrence(mems(0.0)) == pytest.approx(
            1.0 / 6.0, abs=1e-15
        )

    def test_purity_at_zero(self):
        assert purity(mems(0.0)) == pytest.approx(1.0 / 3.0, abs=1e-12)


class TestPurity:
    def test_bounds(self, rng):
        assert purity(qmat.IDENTITY_4 / 4) == pytest.approx(0.25, abs=1e-15)
        assert purity(random_pure_state(rng)) == pytest.approx(1.0, abs=1e-12)


def test_every_factory_output_is_a_strict_state(rng):
    outputs = [
        product_state(random_qubit_vector(rng), random_qubit_vector(rng)),
        *(bell(name) for name in BELL_NAMES),
        mes(0.37, 1.2, 4.4),
        bell_diagonal(0.1, 0.2, 0.3, 0.4),
        werner(0.6),
        mems(0.45),
    ]
    for rho in outputs:
        assert state_defect(rho) <= 1e-12


def test_mes_concurrence_always_maximal(rng):
    for _ in range(20):
        a = rng.uniform(0.0, 1.0)
        th1, th2 = rng.uniform(0.0, 2 * np.pi, size=2)
        assert entanglement.concurrence(mes(a, th1, th2)) == pytest.approx(
            1.0, abs=1e-10
        )
