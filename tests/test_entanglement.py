import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoatom import qmat
from twoatom.entanglement import (
    NotPureError,
    asymptotic_concurrence,
    concurrence,
    entropy_of_entanglement,
    is_ppt_separable,
    mes_asymptotic_concurrence,
    product_asymptotic_concurrence,
    spin_flip,
    wootters_lambdas,
)
from twoatom.propagator import asymptotic_state
from twoatom.states import bell, bell_diagonal, mems, mes, product_state, purity, werner

from conftest import random_states


class TestSpinFlip:
    def test_maximally_mixed_fixed(self):
        assert np.allclose(spin_flip(qmat.IDENTITY_4 / 4), qmat.IDENTITY_4 / 4, atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_involution_preserving_trace_and_psd(self, seed):
        rho = qmat.random_density_matrix(np.random.default_rng(seed))
        flipped = spin_flip(rho)
        assert np.allclose(spin_flip(flipped), rho, atol=1e-14)
        assert abs(np.trace(flipped) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(0.5 * (flipped + flipped.conj().T))[0] > -1e-12

    def test_singlet_invariant(self):
        # sigma2 x sigma2 maps the antisymmetric Bell ket to minus itself,
        # and the ket is real, so the projector is exactly fixed
        rho = bell("psi_minus")
        assert np.allclose(spin_flip(rho), rho, atol=1e-15)


class TestConcurrence:
    def test_product_states_separable(self, rng):
        for _ in range(10):
            rho = product_state(
                qmat.random_qubit_vector(rng), qmat.random_qubit_vector(rng)
            )
            assert concurrence(rho) == pytest.approx(0.0, abs=1e-10)

    def test_werner_half(self):
        assert concurrence(werner(0.5)) == pytest.approx(0.25, abs=1e-12)

    def test_bell_diagonal_dominant(self):
        assert concurrence(bell_diagonal(0.8, 0.1, 0.1, 0.0)) == pytest.approx(
            0.6, abs=1e-12
        )

    def test_bell_state_maximal(self):
        assert concurrence(bell("phi_plus")) == pytest.approx(1.0, abs=1e-12)

    def test_lambdas_descending_and_pure_state_formula(self, rng):
        for _ in range(20):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            lam = wootters_lambdas(rho)
            assert np.all(np.diff(lam) <= 1e-12)
            # pure two-qubit states: C = 2 |v1 v4 - v2 v3|
            expected = 2 * abs(v[0] * v[3] - v[1] * v[2])
            assert concurrence(rho) == pytest.approx(expected, abs=1e-10)


class TestAsymptoticConcurrence:
    def test_excited_ground(self):
        rho = product_state(qmat.EXCITED, qmat.GROUND)
        assert asymptotic_concurrence(rho) == pytest.approx(0.5, abs=1e-15)

    def test_werner_family(self):
        assert asymptotic_concurrence(werner(0.0)) == pytest.approx(0.25, abs=1e-15)
        for p in np.linspace(0, 1, 11):
            assert asymptotic_concurrence(werner(p)) == pytest.approx(
                (1 - p) / 4, abs=1e-12
            )

    def test_mems_point(self):
        assert asymptotic_concurrence(mems(0.8)) == pytest.approx(0.1, abs=1e-12)

    def test_matches_full_computation_on_stationary_state(self):
        # the shortcut from initial matrix elements must agree with running
        # the full spin-flip concurrence on the constructed stationary state
        for rho0 in random_states(31, 50):
            c_direct = asymptotic_concurrence(rho0)
            c_full = concurrence(asymptotic_state(rho0))
            assert abs(c_direct - c_full) < 1e-10


class TestProductAsymptoticConcurrence:
    def test_orthogonal_maximal(self):
        assert product_asymptotic_concurrence(qmat.EXCITED, qmat.GROUND) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_parallel_zero(self, rng):
        psi = qmat.random_qubit_vector(rng)
        assert product_asymptotic_concurrence(psi, psi) == pytest.approx(0.0, abs=1e-12)

    def test_half_overlap_and_consistency(self):
        phi = (qmat.GROUND + qmat.EXCITED) / np.sqrt(2)
        c = product_asymptotic_concurrence(qmat.EXCITED, phi)
        assert c == pytest.approx(0.25, abs=1e-15)
        assert c == pytest.approx(
            asymptotic_concurrence(product_state(qmat.EXCITED, phi)), abs=1e-12
        )


class TestMesAsymptoticConcurrence:
    def test_amplitude_one_separates(self):
        assert mes_asymptotic_concurrence(1.0, 0.3, 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_pi_phase_stays_maximal(self):
        assert mes_asymptotic_concurrence(0.0, np.pi, 0.0) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_half_and_consistency(self):
        a = np.sqrt(0.5)
        c = mes_asymptotic_concurrence(a, np.pi, 0.0)
        assert c == pytest.approx(0.5, abs=1e-12)
        assert c == pytest.approx(
            asymptotic_concurrence(mes(a, np.pi, 0.0)), abs=1e-12
        )


class TestPpt:
    def test_product_separable(self, rng):
        rho = product_state(qmat.random_qubit_vector(rng), qmat.random_qubit_vector(rng))
        assert is_ppt_separable(rho)

    def test_singlet_entangled(self):
        assert not is_ppt_separable(bell("psi_minus"))

    def test_werner_threshold(self):
        assert not is_ppt_separable(werner(0.5))
        assert is_ppt_separable(werner(0.3))


class TestEntropyOfEntanglement:
    def test_product_zero(self, rng):
        rho = product_state(qmat.random_qubit_vector(rng), qmat.random_qubit_vector(rng))
        assert entropy_of_entanglement(rho) == pytest.approx(0.0, abs=1e-9)

    def test_bell_maximal(self):
        assert entropy_of_entanglement(bell("phi_plus")) == pytest.approx(1.0, abs=1e-12)

    def test_mes_family_maximal(self, rng):
        for _ in range(10):
            a = rng.uniform(0, 1)
            th1, th2 = rng.uniform(0, 2 * np.pi, size=2)
            assert entropy_of_entanglement(mes(a, th1, th2)) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_rejects_mixed(self):
        with pytest.raises(NotPureError):
            entropy_of_entanglement(werner(0.5))


class TestAgreementProperties:
    def test_concurrence_iff_npt_on_random_ensemble(self):
        # states with concurrence inside [0, 1e-7] are excluded from the claim
        ambiguous = 0
        for rho in random_states(97, 1000):
            c = concurrence(rho)
            if c <= 1e-7:
                ambiguous += 1
                continue
            assert not is_ppt_separable(rho), f"C={c} but PPT says separable"
        # full-rank Gaussian states are entangled roughly three quarters of
        # the time; make sure the loop exercised both branches
        assert ambiguous > 50

    def test_separable_implies_zero_concurrence(self):
        for rho in random_states(131, 1000):
            if is_ppt_separable(rho):
                assert concurrence(rho) <= 1e-7

    def test_local_unitary_invariance(self, rng):
        for rho in random_states(53, 100):
            u = qmat.kron(
                qmat.random_single_qubit_unitary(rng),
                qmat.random_single_qubit_unitary(rng),
            )
            rotated = u @ rho @ u.conj().T
            assert abs(concurrence(rotated) - concurrence(rho)) < 1e-9

    def test_pure_state_consistency(self, rng):
        # separable pure state <=> projector marginals <=> zero entropy
        for _ in range(100):
            if rng.uniform() < 0.5:
                rho = product_state(
                    qmat.random_qubit_vector(rng), qmat.random_qubit_vector(rng)
                )
            else:
                rho = qmat.random_pure_state(rng)
            c = concurrence(rho)
            red = qmat.partial_trace(rho, "A")
            marginal_purity = float(np.trace(red @ red).real)
            ent = entropy_of_entanglement(rho)
            if c < 1e-7:
                assert marginal_purity > 1 - 1e-7
                assert ent < 1e-6
            elif c > 1e-6:  # purity deficit scales as c^2, keep clear of noise
                assert marginal_purity < 1 - 1e-13
                assert ent > 1e-13


class TestStackedMeasures:
    """Measures on a (..., 4, 4) stack equal the measures of each matrix."""

    def _stack(self, rng):
        mixed = random_states(59, 12)
        pure = [qmat.random_pure_state(rng) for _ in range(6)]  # rank-deficient
        return np.array(mixed + pure).reshape(3, 6, 4, 4)

    def test_stack_equals_per_matrix(self, rng):
        stack = self._stack(rng)
        flat = stack.reshape(-1, 4, 4)
        for fn in (concurrence, purity, asymptotic_concurrence, qmat.sqrt_psd):
            stacked = fn(stack)
            single = np.array([fn(r) for r in flat])
            assert stacked.shape == stack.shape[:2] + single.shape[1:]
            assert np.abs(stacked.reshape(single.shape) - single).max() <= 1e-14

    def test_single_matrix_gives_float(self, rng):
        rho = qmat.random_density_matrix(rng)
        for fn in (concurrence, purity, asymptotic_concurrence):
            assert type(fn(rho)) is float

    def test_mems_family_stacks(self):
        deltas = np.linspace(0.0, 1.0, 11)
        stack = mems(deltas)
        assert stack.shape == (11, 4, 4)
        for d, m in zip(deltas, stack):
            assert np.array_equal(m, mems(d))
