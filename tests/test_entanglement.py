import re
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoatom import qmat
from twoatom.qmat import InvalidStateError, NotHermitianError, NotPSDError
from twoatom.entanglement import (
    asymptotic_concurrence,
    concurrence,
    is_ppt_separable,
    wootters_lambdas,
)
from twoatom.model import ModelParams, evolve_series, time_grid
from twoatom.propagator import asymptotic_state, evolve
from twoatom.states import (
    BELL_NAMES,
    bell,
    bell_diagonal,
    mems,
    mes,
    product_state,
    purity,
    werner,
)

import decimal_concurrence
from conftest import (
    SPIN_FLIP_OP,
    random_pure_state,
    random_qubit_vector,
    random_single_qubit_unitary,
    random_states,
    spin_flip,
)


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
                random_qubit_vector(rng), random_qubit_vector(rng)
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


def product_asymptotic_concurrence(psi, phi):
    """The paper's stationary concurrence (1 - |<psi, phi>|^2) / 2 of a product start."""
    return 0.5 * (1.0 - abs(np.vdot(psi, phi)) ** 2)


def mes_asymptotic_concurrence(a, theta1, theta2):
    """The paper's stationary concurrence (1 - a^2)(1 - cos(theta1 - theta2)) / 2
    of a start from the maximally entangled family mes(a, theta1, theta2)."""
    return 0.5 * (1.0 - a**2) * (1.0 - np.cos(theta1 - theta2))


class TestProductAsymptoticConcurrence:
    """asymptotic_concurrence of a product start against the paper's formula."""

    def test_orthogonal_maximal(self):
        c = asymptotic_concurrence(product_state(qmat.EXCITED, qmat.GROUND))
        assert c == pytest.approx(0.5, abs=1e-15)
        assert c == pytest.approx(product_asymptotic_concurrence(qmat.EXCITED, qmat.GROUND), abs=1e-15)

    def test_parallel_zero(self, rng):
        psi = random_qubit_vector(rng)
        c = asymptotic_concurrence(product_state(psi, psi))
        assert c == pytest.approx(0.0, abs=1e-12)
        assert c == pytest.approx(product_asymptotic_concurrence(psi, psi), abs=1e-12)

    def test_half_overlap_and_consistency(self):
        phi = (qmat.GROUND + qmat.EXCITED) / np.sqrt(2)
        c = asymptotic_concurrence(product_state(qmat.EXCITED, phi))
        assert c == pytest.approx(0.25, abs=1e-15)
        assert c == pytest.approx(product_asymptotic_concurrence(qmat.EXCITED, phi), abs=1e-12)


class TestMesAsymptoticConcurrence:
    """asymptotic_concurrence of an mes(a, theta1, theta2) start against the paper's formula."""

    def test_amplitude_one_separates(self):
        c = asymptotic_concurrence(mes(1.0, 0.3, 2.0))
        assert c == pytest.approx(0.0, abs=1e-15)
        assert c == pytest.approx(mes_asymptotic_concurrence(1.0, 0.3, 2.0), abs=1e-15)

    def test_pi_phase_stays_maximal(self):
        c = asymptotic_concurrence(mes(0.0, np.pi, 0.0))
        assert c == pytest.approx(1.0, abs=1e-15)
        assert c == pytest.approx(mes_asymptotic_concurrence(0.0, np.pi, 0.0), abs=1e-15)

    def test_half_and_consistency(self):
        a = np.sqrt(0.5)
        c = asymptotic_concurrence(mes(a, np.pi, 0.0))
        assert c == pytest.approx(0.5, abs=1e-12)
        assert c == pytest.approx(mes_asymptotic_concurrence(a, np.pi, 0.0), abs=1e-12)


class TestPpt:
    def test_product_separable(self, rng):
        rho = product_state(random_qubit_vector(rng), random_qubit_vector(rng))
        assert is_ppt_separable(rho)

    def test_singlet_entangled(self):
        assert not is_ppt_separable(bell("psi_minus"))

    def test_werner_threshold(self):
        assert not is_ppt_separable(werner(0.5))
        assert is_ppt_separable(werner(0.3))

    @pytest.mark.parametrize(
        "m,error",
        [(np.full((4, 4), np.nan), NotHermitianError),
         (np.eye(4) / 4 + np.diag([0.3, 0.0, 0.0], k=1), NotHermitianError),
         (np.diag([1.5, 0.0, 0.0, -0.5]), NotPSDError)],
        ids=["nan", "non-hermitian", "indefinite"],
    )
    def test_checks_its_input_as_concurrence_does(self, m, error):
        with pytest.raises(error):
            is_ppt_separable(m)

    def test_stack_gives_a_verdict_per_state(self):
        stack = np.stack([bell("phi_plus"), werner(0.3), bell("psi_minus")])
        for rho, expected in [(stack[:2].reshape(1, 2, 4, 4), [[False, True]]),
                              (np.stack([bell("phi_plus")] * 2), [False, False]),
                              (stack[:0], np.zeros(0, bool))]:
            verdicts = is_ppt_separable(rho)
            assert verdicts.dtype == bool and np.array_equal(verdicts, expected)


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
            u = np.kron(
                random_single_qubit_unitary(rng),
                random_single_qubit_unitary(rng),
            )
            rotated = u @ rho @ u.conj().T
            assert abs(concurrence(rotated) - concurrence(rho)) < 1e-9

    def test_pure_state_consistency(self, rng):
        # a pure state has C^2 = 2 (1 - tr rho_A^2) (Wootters, PRL 80, 2245 (1998));
        # squared, since sqrt is not Lipschitz at 0, where the product states lie
        for _ in range(100):
            if rng.uniform() < 0.5:
                rho = product_state(
                    random_qubit_vector(rng), random_qubit_vector(rng)
                )
            else:
                rho = random_pure_state(rng)
            red = np.trace(rho.reshape(2, 2, 2, 2), axis1=0, axis2=2)
            marginal_purity = float(np.trace(red @ red).real)
            assert abs(concurrence(rho) ** 2 - 2.0 * (1.0 - marginal_purity)) < 1e-13


class TestStackedMeasures:
    """Measures on a (..., 4, 4) stack equal the measures of each matrix."""

    def _stack(self, rng):
        mixed = random_states(59, 12)
        pure = [random_pure_state(rng) for _ in range(6)]  # rank-deficient
        return np.array(mixed + pure).reshape(3, 6, 4, 4)

    def test_stack_equals_per_matrix(self, rng):
        stack = self._stack(rng)
        flat = stack.reshape(-1, 4, 4)
        for fn in (concurrence, purity, asymptotic_concurrence):
            stacked = fn(stack)
            single = np.array([fn(r) for r in flat])
            assert stacked.shape == stack.shape[:2] + single.shape[1:]
            assert np.abs(stacked.reshape(single.shape) - single).max() <= 1e-14

    def test_single_matrix_gives_float(self, rng):
        rho = qmat.random_density_matrix(rng)
        for fn in (concurrence, purity, asymptotic_concurrence):
            assert type(fn(rho)) is float

    def test_empty_stack_gives_empty_array(self):
        empty = np.zeros((0, 4, 4), dtype=complex)
        for fn in (concurrence, purity, asymptotic_concurrence):
            assert fn(empty).shape == (0,)

    def test_mems_family_stacks(self):
        deltas = np.linspace(0.0, 1.0, 11)
        stack = mems(deltas)
        assert stack.shape == (11, 4, 4)
        for d, m in zip(deltas, stack):
            assert np.array_equal(m, mems(d))


def _random_x_states(rng, n):
    """n seeded X states: a random diagonal, |rho14| and |rho23| up to their PSD bounds."""
    p = rng.dirichlet(np.ones(4), n)
    rho = np.zeros((n, 4, 4), dtype=complex)
    rho[:, range(4), range(4)] = p
    for (i, j), (k, l) in (((0, 3), (0, 3)), ((1, 2), (1, 2))):
        c = np.sqrt(p[:, k] * p[:, l]) * rng.uniform(0.0, 1.0, n)
        c = c * np.exp(2j * np.pi * rng.uniform(size=n))
        rho[:, i, j], rho[:, j, i] = c, c.conj()
    return rho


def _pieces(rng, n):
    """Random cuts of range(n) into pieces of 1 to 255 states."""
    ends = np.cumsum(rng.integers(1, 256, n))
    return list(zip(np.append(0, ends[ends < n]), np.append(ends[ends < n], n)))


class TestBlockedStacks:
    """A stack around and across block boundaries (qmat measures stacks in blocks
    of 256 states) gets, state for state and bit for bit, what its sub-stacks
    shorter than one block get, and the errors that name the whole input."""

    SHAPES = [(255,), (256,), (511,), (512,), (513,), (2001,), (3, 700)]

    @pytest.fixture(scope="class")
    def pools(self):
        """2,100 X and 2,100 non-X states: an RK4 trajectory and seeded states, shuffled."""
        rng = np.random.default_rng(320)
        grid = time_grid(5.0, 1050)
        x_start = _random_x_states(rng, 1)[0]
        params = ModelParams(1.0, 0.99)
        x = np.concatenate([evolve_series(x_start, params, grid), _random_x_states(rng, 1050)])
        other = np.concatenate([
            evolve_series(mes(0.3, 0.4, 1.9), params, grid), random_states(321, 1050)
        ])
        assert not x[:, _OFF_X].any() and other[:, _OFF_X].any(axis=-1).all()
        return {"X": x[rng.permutation(2100)], "non-X": other[rng.permutation(2100)]}

    @pytest.mark.parametrize("kind", ["X", "non-X"])
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_stack_equals_its_sub_stacks(self, pools, kind, shape):
        n = int(np.prod(shape))
        flat = pools[kind][:n]
        pieces = _pieces(np.random.default_rng(n), n)
        for fn in (concurrence, wootters_lambdas):
            whole = fn(flat.reshape(shape + (4, 4)))
            assert whole.shape == shape + (() if fn is concurrence else (4,))
            parts = np.concatenate([fn(flat[a:b]) for a, b in pieces])
            assert np.array_equal(whole.reshape(parts.shape), parts), fn.__name__

    @pytest.mark.parametrize("kind", ["X", "non-X"])
    def test_ppt_verdicts_are_the_per_state_ones(self, pools, kind):
        single = np.array([is_ppt_separable(r) for r in pools[kind]])
        assert single.any() and not single.all()
        for shape in self.SHAPES:
            n = int(np.prod(shape))
            whole = is_ppt_separable(pools[kind][:n].reshape(shape + (4, 4)))
            assert whole.dtype == bool and whole.shape == shape
            assert np.array_equal(whole.ravel(), single[:n])

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_one_off_x_state_in_the_last_block_sends_all_to_the_general_path(self, pools, shape):
        n = int(np.prod(shape))
        flat = pools["X"][:n].copy()
        flat[-1] = pools["non-X"][0]
        pieces = _pieces(np.random.default_rng(n + 1), n)
        general = np.concatenate([_general_concurrence(flat[a:b]) for a, b in pieces])
        assert np.array_equal(concurrence(flat.reshape(shape + (4, 4))).ravel(), general)

    @pytest.mark.parametrize("kind", ["X", "non-X"])
    def test_errors_name_the_extreme_of_the_whole_stack(self, pools, kind):
        """The first bad state sits in the first block, the worst in the second."""
        stack = pools[kind][:600].copy()
        stack[20, 3, 0] += 2e-6
        stack[500, 3, 0] += 3e-3
        message = r"^hermiticity defect 3.000e-03 exceeds 1.0e-09$"
        with pytest.raises(NotHermitianError, match=message):
            concurrence(stack)
        stack = pools[kind][:600].copy()
        stack[20] = np.diag([0.5, 0.5 + 2e-6, 0.0, -2e-6])
        stack[500] = np.diag([0.5, 0.5 + 3e-3, 0.0, -3e-3])
        message = r"^minimum eigenvalue -3.000e-03 below -1.0e-09$"
        for fn in (concurrence, wootters_lambdas):
            with pytest.raises(NotPSDError, match=message):
                fn(stack)

    @pytest.mark.parametrize(
        "rho", [np.zeros((2, 3, 3)), np.eye(3), np.ones(16), np.zeros((2, 8, 8))],
        ids=["3x3-stack", "3x3", "flat", "8x8"],
    )
    def test_a_shape_not_ending_in_4x4_is_named(self, rho):
        shape = re.escape(str(rho.shape))
        message = rf"^not a valid density matrix: shape {shape}, expected \(\.\.\., 4, 4\)$"
        for fn in (concurrence, wootters_lambdas, is_ppt_separable, asymptotic_concurrence):
            with pytest.raises(InvalidStateError, match=message) as exc:
                fn(rho)
            assert exc.value.violations == {"shape": float(rho.size)}, fn.__name__


class TestWorkingSet:
    """concurrence walks a stack in blocks: its working memory (numpy buffers,
    which tracemalloc traces) does not grow with the stack."""

    @pytest.mark.parametrize("start", [bell("psi_plus"), mes(0.3, 0.4, 1.9)], ids=["X", "non-X"])
    def test_under_one_mib_at_20001_states(self, start):
        traj = evolve_series(start, ModelParams(1.0, 0.99), time_grid(5.0, 20001))
        tracemalloc.start()
        try:
            concurrence(traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def _sandwich_lambdas(rho):
    """Wootters' lambdas as the singular values of the sandwich
    sqrt(rho) (s2 x s2) conj(sqrt(rho)), with sqrt(rho) from a clamped
    eigendecomposition and s2 x s2 as a 4x4 matrix."""
    h = 0.5 * (rho + qmat.dag(rho))
    w, v = np.linalg.eigh(h)
    s = (v * np.sqrt(np.where(w < 0.0, 0.0, w))[..., None, :]) @ qmat.dag(v)
    s = 0.5 * (s + qmat.dag(s))
    return np.linalg.svd(s @ SPIN_FLIP_OP @ s.conj(), compute_uv=False)


def _rank_k_state(rng, k):
    a = rng.standard_normal((4, k)) + 1j * rng.standard_normal((4, k))
    rho = a @ qmat.dag(a)
    return rho / np.trace(rho).real


class TestTauForm:
    """wootters_lambdas (the tau form) agrees with the sqrt(rho) sandwich."""

    def test_matches_sandwich_on_mixed_and_low_rank_states(self):
        rng = np.random.default_rng(83)
        low_rank = [_rank_k_state(rng, k) for k in (1, 2) for _ in range(200)]
        stack = np.array(random_states(83, 200) + low_rank)
        assert np.abs(wootters_lambdas(stack) - _sandwich_lambdas(stack)).max() <= 1e-14

    def test_matches_sandwich_on_a_stack(self, rng):
        pure = [random_pure_state(rng) for _ in range(6)]
        stack = np.array(random_states(85, 12) + pure).reshape(3, 6, 4, 4)
        lam = wootters_lambdas(stack)
        assert lam.shape == (3, 6, 4)
        assert np.abs(lam - _sandwich_lambdas(stack)).max() <= 1e-14

    def test_pure_product_states_cancel_to_zero(self):
        """A true-zero lambda can come out near 1e-8 in either form, but the
        difference l1 - l2 - l3 - l4 of a product state still cancels."""
        rng = np.random.default_rng(84)
        stack = np.array(
            [product_state(random_qubit_vector(rng), random_qubit_vector(rng)) for _ in range(500)]
        )
        assert concurrence(stack).max() <= 1e-14


def _x_state_concurrence(stack):
    """Concurrence of X states (nonzero entries on the diagonal and the
    anti-diagonal only): 2 max(0, |r14| - sqrt(r22 r33), |r23| - sqrt(r11 r44)),
    Yu & Eberly, Quantum Inf. Comput. 7, 459 (2007).  No eigen- or SVD solver."""
    p = np.maximum(np.diagonal(stack, axis1=-2, axis2=-1).real, 0.0)
    outer = np.abs(stack[..., 0, 3]) - np.sqrt(p[..., 1] * p[..., 2])
    inner = np.abs(stack[..., 1, 2]) - np.sqrt(p[..., 0] * p[..., 3])
    return 2.0 * np.maximum(0.0, np.maximum(outer, inner))


def _general_concurrence(rho):
    """The concurrence from wootters_lambdas, which no state shortcuts."""
    lam = wootters_lambdas(rho)
    return np.clip(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3], 0.0, 1.0)


_X_STARTS = {
    "phi_plus": bell("phi_plus"),
    "psi_plus": bell("psi_plus"),
    "psi_minus": bell("psi_minus"),
    "excited_ground": product_state(qmat.EXCITED, qmat.GROUND),
    "werner": werner(0.7),
    "bell_diagonal": bell_diagonal(0.6, 0.1, 0.2, 0.1),
    "mems_0.4": mems(0.4),
    "mems_0.9": mems(0.9),
}
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


class TestXStateOracle:
    """Collective decay keeps an X state an X state, entry for entry, so along
    every trajectory from these starts the closed X-state formula is a second,
    solver-free oracle for the general Wootters path (wootters_lambdas)."""

    @pytest.mark.parametrize("g", [0.0, 0.3, 0.99, 1.0])
    @pytest.mark.parametrize("method", ["propagator", "rk4"])
    def test_concurrence_matches_x_formula_along_trajectories(self, method, g):
        params = ModelParams(1.3, g)
        grid = np.linspace(0.0, 4.0, 81)
        for name, rho in _X_STARTS.items():
            if method == "rk4":
                traj = evolve_series(rho, params, grid)
            else:
                traj = evolve(rho, params, grid)
            # exactly: concurrence takes the closed form only on exact X states
            assert not traj[:, _OFF_X].any(), name
            general = _general_concurrence(traj)
            assert np.abs(general - _x_state_concurrence(traj)).max() <= 1e-12, name
            assert np.abs(concurrence(traj) - general).max() <= 1e-12, name

    @pytest.mark.parametrize("g", [0.0, 0.3, 0.99, 1.0])
    @pytest.mark.parametrize("gamma0", [1e-300, 1e300])
    def test_closed_form_keeps_x_states_exactly_at_extreme_rates(self, gamma0, g):
        grid = np.linspace(0.0, 4.0, 81) / gamma0
        for name, rho in _X_STARTS.items():
            assert not evolve(rho, ModelParams(gamma0, g), grid)[:, _OFF_X].any(), name


def _raises(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} called")
    return fail


class TestXStatePath:
    """concurrence measures a stack of X states by the closed form, with no
    factor and no eigen- or SVD solver, after the same checks as any state."""

    @pytest.fixture(scope="class")
    def x_stack(self):
        up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        phased = bell("phi_plus").astype(complex)
        phased[0, 3], phased[3, 0] = 0.5 * np.exp(0.7j), 0.5 * np.exp(-0.7j)
        return np.array(
            [bell(name) for name in BELL_NAMES]
            + [werner(p) for p in (0.2, 1.0 / 3.0, 0.7)]
            + [bell_diagonal(0.6, 0.1, 0.2, 0.1)]
            + [mems(delta) for delta in (0.2, 2.0 / 3.0, 0.9, 1.0)]
            + [np.kron(down, up), phased],
            dtype=complex,
        )

    @pytest.fixture
    def no_solver(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", _raises("svd"))
        monkeypatch.setattr(np.linalg, "eigvalsh", _raises("eigvalsh"))
        monkeypatch.setattr(qmat, "_factor", _raises("factor"))

    def test_x_states_never_reach_a_solver(self, x_stack, no_solver):
        grid = time_grid(5.0, 101)
        traj = np.array([evolve(rho, ModelParams(1.0, 0.99), grid) for rho in x_stack])
        for rho in (x_stack, traj, traj[0]):
            assert concurrence(rho).shape == rho.shape[:-2]
        for rho in x_stack:
            assert type(concurrence(rho)) is float

    @pytest.mark.parametrize("place", [(0, 1), (0, 2), (1, 3), (2, 3), (1, 0), (3, 2)])
    @pytest.mark.parametrize("value", [1e-300, -1e-300, 1e-300j])
    def test_one_off_x_entry_sends_the_stack_to_the_general_path(
        self, x_stack, no_solver, place, value
    ):
        stack = x_stack.copy()
        i, j = place
        stack[5, i, j], stack[5, j, i] = value, np.conj(value)
        with pytest.raises(AssertionError, match="factor called"):
            concurrence(stack)
        with pytest.raises(AssertionError, match="factor called"):
            concurrence(stack[5])

    def test_within_1e15_of_the_reference(self, x_stack):
        reference = np.array([float(decimal_concurrence.concurrence(rho)) for rho in x_stack])
        assert np.abs(concurrence(x_stack) - reference).max() <= 1e-15
        assert np.abs([concurrence(rho) for rho in x_stack] - reference).max() <= 1e-15

    @pytest.mark.parametrize("start", ["psi_plus", "excited_ground"])
    def test_no_worse_than_the_general_path_on_a_trajectory(self, start):
        """Against the reference the two paths err alike: 5.8e-15 at most on
        the RK4 psi+ trajectory, whose states 1385 and near it are slightly
        indefinite (see tests/decimal_concurrence.py), and 2.8e-15 from
        excited x ground.  They round differently, so a state may land one
        unit of 1.0's last place (eps) apart."""
        traj = evolve_series(_X_STARTS[start], ModelParams(1.0, 0.99), time_grid(5.0, 2001))
        states = traj[np.r_[0:2001:20, 1385]]
        reference = np.array([float(decimal_concurrence.concurrence(rho)) for rho in states])
        x_error = np.abs(concurrence(states) - reference)
        general_error = np.abs(_general_concurrence(states) - reference)
        assert np.all(x_error <= general_error + np.finfo(float).eps)
        assert x_error.max() <= 6e-15

    def test_checks_come_first(self, x_stack):
        m = bell("phi_plus").astype(complex)
        m[0, 3] = 0.6
        with pytest.raises(NotHermitianError, match=r"^hermiticity defect 1.000e-01 exceeds"):
            concurrence(m)
        # eigenvalues 0.5 +- (0.5 + 2e-9): one below -TOL_STRUCTURAL
        m[0, 3] = m[3, 0] = 0.5 + 2e-9
        for rho in (m, np.array([x_stack[0], m])):
            with pytest.raises(NotPSDError, match=r"^minimum eigenvalue -2.000e-09 below"):
                concurrence(rho)
        for bad in (np.nan, complex(0.0, np.nan)):
            m = x_stack.copy()
            m[3, 1, 1] = bad
            with pytest.raises(NotHermitianError, match=r"^hermiticity defect nan exceeds"):
                concurrence(m)
        assert concurrence(np.zeros((0, 4, 4))).shape == (0,)


def _graded_state(seed, exponents):
    """U diag(w) U^H with w proportional to 10^-exponents, U Haar-random."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    w = 10.0 ** -np.array(exponents, dtype=float)
    return (u * (w / w.sum())) @ qmat.dag(u)


class TestDecimalReference:
    """Both concurrence paths against a 50-digit reference of the same double matrices."""

    @pytest.fixture(scope="class")
    def states(self):
        traj = evolve_series(mes(0.007, 3.53, 2.78), ModelParams(1.0, 0.99),
                             time_grid(5.0, 2001))
        # exact dyadic qubit states: their products are exactly separable (a
        # rounded pure product state is entangled by its rounding, C ~ 1e-10)
        rho_a = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
        rho_b = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
        up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        return np.array(
            # eigenvalues 3.5e-15 and 1.9e-8; 4.6e-13 and 4.3e-7, where eigh errs most
            [traj[1749], traj[758]]
            + [_graded_state(seed, e) for seed, e in enumerate(
                [(0, 4, 8, 12), (0, 2, 4, 6), (0, 6, 12, 15), (0, 1, 14, 15), (0, 0, 10, 13),
                 (0, 3, 3, 16)])]
            + [np.kron(rho_a, rho_b), np.kron(rho_a, up), np.kron(down, up)]
            + [bell(name) for name in BELL_NAMES]
            + [mems(delta) for delta in (0.2, 0.5, 2.0 / 3.0, 0.8, 1.0)]
        )

    @pytest.fixture(scope="class")
    def reference(self, states):
        return np.array([float(decimal_concurrence.concurrence(rho)) for rho in states])

    def test_reference_is_exact_on_mems(self):
        # C(mems(delta)) = delta for the double matrix too: an X state with rho_33 = 0
        for delta in (0.2, 0.8, 1.0):
            assert abs(decimal_concurrence.concurrence(mems(delta)) - Decimal(delta)) < 1e-45

    def test_stacked_path_within_1e15(self, states, reference):
        assert np.abs(concurrence(states) - reference).max() <= 1e-15

    def test_single_state_path(self, states, reference):
        """eigh's error on an eigenvalue near 1e-13 costs the single state
        3.1e-10 on traj[758]; every other state here is within 1e-15."""
        error = np.abs([concurrence(rho) for rho in states] - reference)
        assert error[1] <= 4e-10
        assert np.delete(error, 1).max() <= 1e-15


def _local_phases(a, b):
    """diag(1, e^{ia}) x diag(1, e^{ib}): a local unitary, so it keeps the concurrence."""
    return np.diag(np.kron([1.0, np.exp(1j * a)], [1.0, np.exp(1j * b)]))


class TestRealValuedStack:
    """A stack of real-valued non-X states, trajectories among them, against the reference."""

    @pytest.fixture(scope="class")
    def states(self):
        grid = time_grid(5.0, 2001)
        near_psi_plus = evolve_series(mes(0.007, 0.0, 0.0), ModelParams(1.0, 0.99), grid)
        werner_traj = evolve_series(werner(0.7), ModelParams(1.0, 0.99), grid)
        rho_a = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
        up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        stack = np.array(
            [bell(name) for name in BELL_NAMES]
            + [mems(delta) for delta in (0.2, 0.5, 2.0 / 3.0, 0.8, 1.0)]
            + [np.kron(rho_a, up), np.kron(down, up)]
            # smallest eigenvalues -3.5e-19, 1.7e-18 ... 1.9e-16 (states 1-5, below
            # the factor's eps tr(rho) cut), 3.3e-16, 1.1e-15, 9.6e-15, 9.8e-14, 1.0e-12
            + list(near_psi_plus[[0, 1, 2, 3, 4, 5, 6, 9, 19, 43, 1543]])
            + list(near_psi_plus[250::250])
            # the concurrence dies after 688 and revives at 1166
            + list(werner_traj[[0, 688, 689, 1165, 1166]])
            + list(werner_traj[250::250])
        )
        assert not stack.imag.any()
        return stack

    @pytest.fixture(scope="class")
    def reference(self, states):
        return np.array([float(decimal_concurrence.concurrence(rho)) for rho in states])

    def test_real_valued_stack_against_the_reference(self, states, reference):
        """Within 1e-15, except where the smallest eigenvalue lies below the
        factor's cut: a zero column there costs 1.4e-13 to 1.6e-11."""
        error = np.abs(concurrence(states) - reference)
        below_cut = np.arange(12, 17)  # near_psi_plus[1:6]
        assert np.delete(error, below_cut).max() <= 1e-15
        assert error[below_cut].max() <= 2e-11

    @pytest.mark.parametrize("a,b", [(0.4, 1.9), (1e-3, -2.5), (np.pi / 2, np.pi)])
    def test_real_and_complex_paths_agree(self, states, a, b):
        u = _local_phases(a, b)
        phased = u @ states @ qmat.dag(u)
        assert np.abs(concurrence(phased) - concurrence(states)).max() <= 8 * np.finfo(float).eps
