import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoatom import qmat
from twoatom.entanglement import concurrence, wootters_lambdas
from twoatom.model import (
    ModelParams,
    StepTooLargeError,
    _check_positivity,
    evolve_series,
    time_grid,
)
from twoatom.states import bell, bell_diagonal, mems, mes, product_state, werner
from twoatom.qmat import (
    InvalidStateError,
    NotHermitianError,
    NotPSDError,
    partial_transpose_a,
    state_health,
    validate_state,
)

from conftest import (
    cholesky_passes, random_states, state_defect, threshold_states, x_threshold_states,
)

I2 = qmat.IDENTITY_2
I4 = qmat.IDENTITY_4


def _rand_mat2(rng):
    return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))


def _rand_state2(rng):
    g = _rand_mat2(rng)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestKron:
    def test_identity(self):
        assert np.array_equal(np.kron(I2, I2), I4)

    def test_projector_onto_e1(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        assert np.array_equal(np.kron(p, p), np.diag([1.0, 0, 0, 0]).astype(complex))

    def test_sigma_plus_on_atom_a(self):
        # |1><0| x I lifts e3 -> e1 and e4 -> e2: ones at (1,3) and (2,4)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 2] = 1.0
        expected[1, 3] = 1.0
        assert np.array_equal(np.kron(qmat.SIGMA_PLUS, I2), expected)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_bilinear_and_multiplicative_trace(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (_rand_mat2(rng) for _ in range(3))
        lam = complex(rng.standard_normal(), rng.standard_normal())
        assert np.allclose(np.kron(a + lam * b, c), np.kron(a, c) + lam * np.kron(b, c), atol=1e-12)
        assert np.allclose(np.kron(c, a + lam * b), np.kron(c, a) + lam * np.kron(c, b), atol=1e-12)
        assert abs(np.trace(np.kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


class TestPartialTranspose:
    @pytest.mark.parametrize("rho", [np.eye(3), np.ones((2, 8))], ids=["3x3", "2x8"])
    def test_a_shape_not_ending_in_4x4_is_named(self, rho):
        shape = re.escape(str(rho.shape))
        with pytest.raises(InvalidStateError, match=rf"shape {shape}, expected \(\.\.\., 4, 4\)$"):
            partial_transpose_a(rho)

    def test_maximally_mixed_fixed(self):
        assert np.array_equal(partial_transpose_a(I4 / 4), I4 / 4)

    def test_real_product_state_fixed(self, rng):
        rho_a = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
        rho_b = _rand_state2(rng)
        rho = np.kron(rho_a, rho_b)
        assert np.allclose(partial_transpose_a(rho), np.kron(rho_a.T, rho_b), atol=1e-14)

    def test_singlet_negative_eigenvalue(self):
        # brute-force diagonalization of the transposed Bell projector
        v = np.zeros(4, dtype=complex)
        v[1], v[2] = 1.0, -1.0
        v /= np.sqrt(2)
        pt = partial_transpose_a(np.outer(v, v.conj()))
        assert abs(np.linalg.eigvalsh(pt)[0] - (-0.5)) < 1e-12

    def test_stack_swaps_the_atom_a_indices_of_each_state(self):
        stack = np.array(random_states(17, 6)).reshape(2, 3, 4, 4)
        pt = partial_transpose_a(stack)
        assert pt.shape == stack.shape
        for s, p in zip(stack.reshape(-1, 4, 4), pt.reshape(-1, 4, 4)):
            assert np.array_equal(p, partial_transpose_a(s))
            for i, j, k, l in itertools.product(range(2), repeat=4):
                assert p[2 * i + j, 2 * k + l] == s[2 * k + j, 2 * i + l]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_involution_trace_hermiticity(self, seed):
        rho = qmat.random_density_matrix(np.random.default_rng(seed))
        pt = partial_transpose_a(rho)
        assert np.allclose(partial_transpose_a(pt), rho, atol=1e-14)
        assert abs(np.trace(pt) - np.trace(rho)) < 1e-12
        assert np.abs(pt - pt.conj().T).max() < 1e-12


class TestPsdEigh:
    """The PSD factor of a single state (one eigh) names what it rejects."""

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError, match=r"^minimum eigenvalue -5.000e-01 below -1.0e-09$"):
            concurrence(np.diag([1.0, 1.0, 1.0, -0.5]).astype(complex))

    def test_rejects_non_hermitian(self):
        m = I4.copy()
        m[0, 1] = 1.0
        message = r"^hermiticity defect 1.000e\+00 exceeds 1.0e-09$"
        with pytest.raises(NotHermitianError, match=message):
            concurrence(m)

    def test_nan_is_not_hermitian(self):
        for place, bad in (((0, 3), np.nan), ((1, 1), np.inf)):
            m = I4 / 4
            m[place] = bad
            with pytest.raises(NotHermitianError, match=r"^hermiticity defect nan exceeds"):
                concurrence(m)


def _rank_k_stack(seed, k, n):
    a = np.random.default_rng(seed).standard_normal((n, 4, k, 2)).view(complex)[..., 0]
    rho = a @ qmat.dag(a)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


class TestPsdFactor:
    """The stacked pivoted-Cholesky factor rejects what the single-state factor
    rejects and factors what it accepts."""

    def test_one_indefinite_state_in_a_stack(self):
        stack = np.array(random_states(91, 5))
        stack[3] = np.diag([1.0, 1.0, 1.0, -0.5])
        with pytest.raises(NotPSDError, match=r"^minimum eigenvalue -5.000e-01 below -1.0e-09$"):
            concurrence(stack)

    @pytest.mark.parametrize(
        "place,bad,defect",
        [((0, 3), np.nan, "nan"), ((1, 1), np.inf, "nan"), ((0, 1), 1.0, r"1.000e\+00")],
    )
    def test_non_hermitian_state_in_a_stack(self, place, bad, defect):
        stack = np.array(random_states(92, 5))
        stack[2] = I4 / 4
        stack[(2,) + place] = bad
        with pytest.raises(NotHermitianError, match=rf"^hermiticity defect {defect} exceeds"):
            concurrence(stack)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_factor_reproduces_the_hermitian_part(self, rank):
        stack = _rank_k_stack(93 + rank, rank, 300)
        x = qmat._factor(qmat._psd_check(stack))
        assert x.shape == stack.shape
        assert np.abs(x @ qmat.dag(x) - 0.5 * (stack + qmat.dag(stack))).max() <= 1e-14

    def test_keeps_a_tiny_eigenvalue_that_moves_the_concurrence(self):
        """On this trajectory a state has eigenvalues 3.5e-15 and 1.9e-8; a
        factor that drops the first moves its concurrence by 1e-7."""
        traj = evolve_series(mes(0.007, 3.53, 2.78), ModelParams(1.0, 0.99), time_grid(5.0, 2001))
        single = [concurrence(rho) for rho in traj]
        assert np.abs(concurrence(traj) - single).max() <= 1e-8

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_stack_of_one_matches_the_single_state(self, rank):
        for rho in _rank_k_stack(97 + rank, rank, 50):
            single = wootters_lambdas(rho)
            assert np.abs(wootters_lambdas(rho[None])[0] - single).max() <= 1e-14


def _accepts(check):
    try:
        check()
    except (NotPSDError, StepTooLargeError):
        return False
    return True


def _valid(m):
    """validate_state's verdict on a state whose one possible violation is positivity."""
    try:
        validate_state(m)
    except InvalidStateError as exc:
        assert set(exc.violations) == {"positivity"}
        return False
    return True


class TestPsdVerdict:
    """A state at the threshold gets one PSD verdict: alone, in a stack, from the
    RK4 positivity guard and from validate_state, which reads every state file."""

    @pytest.mark.parametrize("states", [threshold_states, x_threshold_states])
    def test_state_files_get_the_verdict_of_the_measures_and_the_guard(self, states):
        """Unit-trace states whose smallest eigenvalue (of a block, for X states) is
        -TOL_STRUCTURAL (1 +- 2e-6).  A validate_state that read the spectrum alone
        rejected 13 non-X and 9 X states of these draws that the measures accept."""
        verdicts = [
            (_valid(m), _accepts(lambda: concurrence(m)),
             _accepts(lambda: concurrence(np.stack([I4 / 4, m]))),
             _accepts(lambda: _check_positivity(m[None], [1.0])))
            for m in states(35, 2000, spread=2e-6, unit=True)
        ]
        assert [v for v in verdicts if len(set(v)) > 1] == []
        assert {v[0] for v in verdicts} == {True, False}  # both sides of the threshold

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_single_stack_and_guard_agree(self, seed):
        verdicts = [
            (_accepts(lambda: concurrence(m)), _accepts(lambda: concurrence(m[None])),
             _accepts(lambda: _check_positivity(m[None], [1.0])))
            for m in threshold_states(seed, 500)
        ]
        assert [v for v in verdicts if len(set(v)) > 1] == []
        assert {v[0] for v in verdicts} == {True, False}  # both sides of the threshold

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_x_states_agree_alone_in_a_mixed_stack_and_in_the_guard(self, seed):
        """An X state is decided by its blocks, the non-X states of a stack by
        Cholesky.  The non-X threshold states beside it are ones that both
        Cholesky and the spectra accept, so the stack's verdict is the X state's."""
        others = threshold_states(seed, 60)
        others = others[[cholesky_passes(o) and state_health(o)[2][0] >= -qmat.TOL_STRUCTURAL
                         for o in others]][:8]
        assert len(others) == 8
        verdicts = [
            (_accepts(lambda: concurrence(m)), _accepts(lambda: concurrence(m[None])),
             _accepts(lambda: concurrence(np.insert(others, i % 9, m, axis=0))),
             _accepts(lambda: _check_positivity(m[None], [1.0])))
            for i, m in enumerate(x_threshold_states(seed, 500))
        ]
        assert [v for v in verdicts if len(set(v)) > 1] == []
        assert {v[0] for v in verdicts} == {True, False}  # both sides of the threshold

    @pytest.mark.parametrize("states", [threshold_states, x_threshold_states])
    def test_a_pair_passes_exactly_when_both_states_pass_alone(self, states):
        """A stack that fails its fast verdict takes the spectra, which at the
        threshold can reject a state that passes alone (pair 18 of
        threshold_states(0, 500)); such a state is asked alone."""
        m = states(0, 500)
        alone = [_accepts(lambda: concurrence(rho)) for rho in m]
        disagreements = [
            i for i in range(0, 500, 2)
            if {_accepts(lambda: concurrence(m[i:i + 2])),
                _accepts(lambda: _check_positivity(m[i:i + 2], [0.0, 1.0]))}
            != {alone[i] and alone[i + 1]}
        ]
        assert disagreements == []
        assert {alone[i] and alone[i + 1] for i in range(0, 500, 2)} == {True, False}


def _raises(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} called")
    return fail


def _x_state(diagonal, rho14, rho23):
    rho = np.diag(np.asarray(diagonal, dtype=complex))
    rho[0, 3], rho[3, 0] = rho14, np.conj(rho14)
    rho[1, 2], rho[2, 1] = rho23, np.conj(rho23)
    return rho


_PAPER_X_STARTS = [bell(name) for name in ("phi_plus", "phi_minus", "psi_plus", "psi_minus")] + [
    product_state(qmat.EXCITED, qmat.GROUND), werner(0.7), bell_diagonal(0.6, 0.1, 0.2, 0.1),
    mems(0.4), mems(0.9),
]
#: full-rank X states, and X states with a negative eigenvalue of 0.04 or more
_PSD_X = [werner(0.7), bell_diagonal(0.6, 0.1, 0.2, 0.1),
          _x_state([0.4, 0.2, 0.15, 0.25], 0.25 * np.exp(1.1j), 0.1 * np.exp(-0.4j))]
_INDEFINITE_X = [_x_state([0.4, 0.2, 0.15, 0.25], 0.4, 0.0),
                 _x_state([0.4, 0.2, 0.15, 0.25], 0.1j, -0.3),
                 _x_state([-0.1, 0.5, 0.3, 0.3], 0.0, 0.0)]


class TestXStateVerdict:
    """Where the X states' block verdict runs, and what it does with extreme entries."""

    def test_x_starts_never_reach_cholesky(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "cholesky", _raises("cholesky"))
        grid = time_grid(5.0, 201)
        for rho in _PAPER_X_STARTS:
            traj = evolve_series(rho, ModelParams(1.0, 0.99), grid)
            assert concurrence(traj).shape == (201,)
            assert 0.0 <= concurrence(traj[100]) <= 1.0
        with pytest.raises(AssertionError, match="cholesky called"):
            evolve_series(mes(0.3, 0.4, 1.9), ModelParams(1.0, 0.99), grid)

    def test_mixed_stack_sends_only_its_non_x_states_to_cholesky(self, monkeypatch):
        stack = np.array(_PSD_X + random_states(5, 3))
        seen = []

        def cholesky(a):
            seen.append(a.shape)
            return np.zeros_like(a)
        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        assert qmat._psd_min_eigenvalues(stack) is None
        assert seen == [(3, 4, 4)]

    @pytest.mark.parametrize("scale", [1e150, 1e-150, 1e300, 1e-310])
    def test_extreme_entries_get_the_cholesky_verdict(self, scale):
        """Scaled by 1e-150 or into the subnormals every state passes (the
        shift dominates); scaled up the indefinite ones fail.  The overflow of
        |m41|^2 / d1 on a failing state warns of nothing."""
        states = [scale * m for m in _PSD_X + _INDEFINITE_X]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdicts = [qmat._psd_min_eigenvalues(m) is None for m in states]
            assert verdicts == [cholesky_passes(m) for m in states]
            assert verdicts == [qmat._psd_min_eigenvalues(m[None]) is None for m in states]
            assert verdicts == [_accepts(lambda: _check_positivity(m[None], [1.0])) for m in states]
        assert verdicts == ([True] * 6 if scale < 1.0 else [True] * 3 + [False] * 3)

    def test_non_finite_x_states_take_the_spectra(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "cholesky", _raises("cholesky"))
        stack = np.array(_PSD_X, dtype=complex)
        stack[0, 0, 3] = np.nan
        stack[1, 1, 1] = np.inf
        min_eig = qmat._psd_min_eigenvalues(stack)
        assert np.isnan(min_eig[:2]).all() and min_eig[2] > 0.0
        assert np.isnan(qmat._psd_min_eigenvalues(stack[1]))
        for rho in (stack, stack[0], stack[1]):
            with pytest.raises(NotHermitianError, match=r"^hermiticity defect nan exceeds"):
                concurrence(rho)

    def test_x_check_reads_what_the_general_check_reads(self):
        """The X path of _psd_check (measure_x) takes the X entries of the
        general path's Hermitian part bit for bit and rejects with the same
        message; a state with a nonzero off-X entry sends the input to the
        general path."""
        traj = evolve_series(_PSD_X[2], ModelParams(1.0, 0.7), time_grid(5.0, 101))
        for rho in [traj, traj[7], np.array(_PAPER_X_STARTS, dtype=complex)]:
            h = qmat._psd_check(rho).reshape(rho.shape[:-2] + (16,))[..., qmat._X_UPPER]
            assert np.array_equal(qmat._psd_check(rho, _raises("general"), np.asarray), h)
        mixed = np.array(_PSD_X + random_states(5, 1), dtype=complex)
        for rho in (mixed, mixed[-1], mes(0.3, 0.4, 1.9).astype(complex)):
            general = qmat._psd_check(rho, np.asarray, _raises("X"))
            assert np.array_equal(general, qmat._psd_check(rho))
        skewed = _x_state([0.4, 0.2, 0.15, 0.25], 0.1, 0.0)
        skewed[3, 0] = 0.1 + 3e-9j
        for bad in (skewed, _INDEFINITE_X[0].astype(complex)):
            with pytest.raises(ValueError) as general:
                qmat._psd_check(bad)
            with pytest.raises(type(general.value), match=f"^{re.escape(str(general.value))}$"):
                qmat._psd_check(bad, _raises("general"), np.asarray)


class TestValidateState:
    def test_accepts_maximally_mixed(self):
        out = validate_state(I4 / 4)
        assert np.array_equal(out, I4 / 4)

    def test_rejects_indefinite_diagonal(self):
        # trace of this one is exactly 1, so only positivity trips
        m = np.diag([0.5, 0.6, 0.0, -0.1]).astype(complex)
        with pytest.raises(InvalidStateError) as exc:
            validate_state(m)
        assert set(exc.value.violations) == {"positivity"}
        assert exc.value.violations["positivity"] == pytest.approx(0.1)

    def test_rejects_trace_and_positivity(self):
        m = np.diag([0.5, 0.7, 0.0, -0.1]).astype(complex)
        with pytest.raises(InvalidStateError) as exc:
            validate_state(m)
        assert set(exc.value.violations) == {"trace", "positivity"}

    def test_rejects_hermiticity(self):
        m = I4 / 4
        m = m.copy()
        m[0, 1] = 1.0
        with pytest.raises(InvalidStateError) as exc:
            validate_state(m)
        assert "hermiticity" in exc.value.violations
        assert exc.value.violations["hermiticity"] == pytest.approx(1.0)

    def test_non_hermitian_input_keeps_the_positivity_of_its_spectrum(self):
        """The PSD verdict reads the lower triangle, here diagonal and PSD; the Hermitian
        part, with 1.0 at rho14 and rho41, is indefinite and stays named."""
        m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        m[0, 3] = 2.0
        with pytest.raises(InvalidStateError) as exc:
            validate_state(m)
        assert set(exc.value.violations) == {"hermiticity", "positivity"}
        assert exc.value.violations["positivity"] == pytest.approx(np.sqrt(1.0625) - 0.25)

    def test_random_ensemble_is_valid(self):
        for rho in random_states(5, 20):
            validate_state(rho)
            assert state_defect(rho) <= 1e-12

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidStateError, match=r"^not a valid density matrix: "
                           r"shape \(3, 3\), expected \(4, 4\)$"):
            validate_state(np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_entries_naming_them(self, bad):
        m = (I4 / 4).copy()
        m[0, 1] = bad
        m[2, 2] = bad
        with pytest.raises(InvalidStateError, match=r"^not a valid density matrix: "
                           r"non-finite entries rho12, rho33$") as exc:
            validate_state(m)
        assert set(exc.value.violations) == {"hermiticity", "trace", "positivity"}
        assert all(np.isnan(v) for v in exc.value.violations.values())


class TestStateHealth:
    def test_values(self):
        # an anti-Hermitian pair that the Hermitian part drops
        m = np.diag([0.5, 0.25, 0.5, -0.5]).astype(complex)
        m[0, 1], m[1, 0] = 1e-3, -1e-3
        defect, trace_defect, spectrum = state_health(m)
        assert defect == 2e-3
        assert trace_defect == 0.25
        assert np.allclose(spectrum, [-0.5, 0.25, 0.5, 0.5], atol=1e-15)

    def test_stack_shapes(self):
        stack = np.array(random_states(41, 6)).reshape(2, 3, 4, 4)
        defect, trace_defect, spectrum = state_health(stack)
        assert defect.shape == trace_defect.shape == (2, 3)
        assert spectrum.shape == (2, 3, 4)

    @pytest.mark.parametrize("finite_only", [False, True])
    def test_stack_matches_each_state_bitwise(self, finite_only):
        """NaN and inf states read NaN in all three; every finite state
        reads what it reads alone, bit for bit."""
        stack = np.array(random_states(43, 5) + [I4 / 4, I4, np.diag([1.0, 0, 0, -1e-3])])
        if not finite_only:
            stack[1, 2, 3] = np.nan
            stack[4, 0, 0] = np.inf
        health = state_health(stack)
        for i, state in enumerate(stack):
            if not finite_only and i in (1, 4):
                assert all(np.isnan(x[i]).all() for x in health)
                continue
            for whole, alone in zip(health, state_health(state)):
                assert np.array_equal(whole[i], alone)
                assert np.signbit(whole[i]).tolist() == np.signbit(alone).tolist()

    def test_single_non_finite_state(self):
        m = I4 / 4
        m = m.copy()
        m[3, 0] = -np.inf
        defect, trace_defect, spectrum = state_health(m)
        assert np.isnan(defect) and np.isnan(trace_defect) and np.isnan(spectrum).all()
        assert spectrum.shape == (4,)
