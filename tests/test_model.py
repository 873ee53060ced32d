import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoatom import model, propagator, qmat
from twoatom.model import (
    ModelParams,
    ParameterError,
    StepTooLargeError,
    _check_positivity,
    _run_plan,
    evolve_series,
    lindblad_rhs,
    liouvillian,
)
from twoatom.states import bell, mes, product_state, werner

from conftest import ORACLE_STARTS, random_pure_state, random_states, state_defect

P_G1 = ModelParams(gamma0=1.0, g=1.0)


class TestModelParams:
    def test_gamma_is_product(self):
        p = ModelParams(gamma0=2.5, g=0.4)
        assert p.gamma == 2.5 * 0.4

    @pytest.mark.parametrize("gamma0,g", [(0.0, 0.5), (-1.0, 0.5), (1.0, -0.1), (1.0, 1.1)])
    def test_rejects_bad_rates(self, gamma0, g):
        with pytest.raises(ValueError):
            ModelParams(gamma0=gamma0, g=g)


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


# Dicke basis |11>, psi_plus, psi_minus, |00>: excitation numbers and the
# unitary whose columns are the kets
_DICKE_EXCITATIONS = np.array([2, 1, 1, 0])
_EG, _GE = np.kron(qmat.EXCITED, qmat.GROUND), np.kron(qmat.GROUND, qmat.EXCITED)
_DICKE = np.column_stack(
    [
        np.kron(qmat.EXCITED, qmat.EXCITED),
        (_EG + _GE) / np.sqrt(2.0),
        (_EG - _GE) / np.sqrt(2.0),
        np.kron(qmat.GROUND, qmat.GROUND),
    ]
)


class TestLiouvillian:
    """In the Dicke basis the generator is triangular when its elements are
    ordered by excitation number (Ficek & Tanas, Phys. Rep. 372, 369 (2002)):
    the element |i><j| decays at (G_i + G_j)/2 with
    G = (2 gamma0, gamma0 + gamma, gamma0 - gamma, 0), and feeds only
    elements with fewer excitations.  So the diagonal is the spectrum.  A
    sorted-eigenvalue check would not do: the spectrum is the same for
    gamma -> -gamma, and the diagonal is not."""

    def test_dicke_basis_triangular_with_known_rates(self):
        # vec(U^H rho U) = (U^H kron U^T) vec(rho) for row-major vec
        to_dicke = np.kron(_DICKE.conj().T, _DICKE.T)
        from_dicke = np.kron(_DICKE, _DICKE.conj())
        exc = (_DICKE_EXCITATIONS[:, None] + _DICKE_EXCITATIONS[None, :]).ravel()
        # row = target element, column = source element
        no_loss = (exc[None, :] <= exc[:, None]) & ~np.eye(16, dtype=bool)
        for g in (0.0, 0.3, 0.999, 1.0):
            params = ModelParams(gamma0=1.3, g=g)
            lv = to_dicke @ liouvillian(params) @ from_dicke
            rates = np.array([2.0, 1.0 + g, 1.0 - g, 0.0]) * params.gamma0
            decay = 0.5 * (rates[:, None] + rates[None, :]).ravel()
            assert np.abs(np.diag(lv) + decay).max() <= 1e-14
            assert np.abs(lv[no_loss]).max() <= 1e-15

    @pytest.mark.parametrize("g", [0.0, 1e-8, 0.3, 1.0 - 1e-8, 1.0])
    def test_columns_are_the_generator_of_the_units_bit_for_bit(self, g):
        """Signed zeros included: the float views must agree in every bit."""
        units = np.eye(16, dtype=complex).reshape(16, 4, 4)
        for gamma0 in (1e-300, 1e-3, 1.0, 1e3, 1e300, 4e307):
            params = ModelParams(gamma0, g)
            lv = liouvillian(params)
            for k, unit in enumerate(units):
                column = np.ascontiguousarray(lv[:, k]).view(float)
                rhs = lindblad_rhs(unit, params).reshape(16).view(float)
                assert column.tobytes() == rhs.tobytes(), (gamma0, k)

    @pytest.mark.parametrize("gamma0", [1e-300, 1.0, 1e300])
    def test_matrix_applies_the_generator_to_a_stack(self, gamma0):
        stack = np.array(random_states(29, 40) + [random_pure_state(np.random.default_rng(30))])
        for g in (0.0, 0.3, 1.0):
            params = ModelParams(gamma0, g)
            via_matrix = (stack.reshape(-1, 16) @ liouvillian(params).T).reshape(-1, 4, 4)
            err = np.abs(via_matrix - lindblad_rhs(stack, params)).max()
            assert err <= 8 * np.finfo(float).eps * gamma0

    def test_returned_matrix_is_the_callers(self):
        params = ModelParams(1.3, 0.6)
        first = liouvillian(params)
        expected = first.copy()
        first[...] = 7.0
        assert np.array_equal(liouvillian(params), expected)

    def test_channel_matrices_are_read_only(self):
        for channel in (model._L_OWN, model._L_CROSS):
            assert not channel.flags.writeable
            with pytest.raises(ValueError):
                channel[0, 0] = 1.0


class TestIntegrate:
    """RK4 to one time (a scalar t), and the step guard."""

    def test_zero_time_identity(self, rng):
        rho = qmat.random_density_matrix(rng)
        out = evolve_series(rho, P_G1, 0.0)
        assert np.array_equal(out, rho)

    def test_scalar_time_is_the_one_point_grid(self, rng):
        rho = qmat.random_density_matrix(rng)
        params = ModelParams(1.0, 0.6)
        for t in (0.0, 1e-4, 1.3, 7.0):
            out = evolve_series(rho, params, t)
            assert out.shape == (4, 4)
            assert np.array_equal(out, evolve_series(rho, params, [t])[0])

    def test_doubly_excited_population(self):
        rho = product_state(qmat.EXCITED, qmat.EXCITED)
        out = evolve_series(rho, P_G1, 1.0)
        assert out[0, 0].real == pytest.approx(np.exp(-2.0), abs=1e-10)

    def test_antisymmetric_bell_stable(self):
        rho = bell("psi_minus")
        for t in (0.5, 3.0):
            assert np.abs(evolve_series(rho, P_G1, t) - rho).max() < 1e-9

    def test_rejects_negative_time(self, rng):
        with pytest.raises(ValueError):
            evolve_series(qmat.random_density_matrix(rng), P_G1, -1.0)

    def test_output_is_valid_state(self):
        for rho in random_states(59, 5):
            assert state_defect(evolve_series(rho, P_G1, 1.3)) <= 1e-7

    def test_unstable_step_raises(self, rng):
        rho = qmat.random_density_matrix(rng)
        with pytest.raises(StepTooLargeError):
            evolve_series(rho, P_G1, 50.0, step=5.0)

    def test_overflowing_step_raises(self):
        # a step of 1e80 overflows the step polynomial to inf and nan entries
        with pytest.raises(StepTooLargeError, match="minimum eigenvalue nan"):
            evolve_series(qmat.IDENTITY_4 / 4, P_G1, 1e80, step=1e80)

    def test_guard_matches_measure_tolerance(self):
        """A state the entanglement measures would refuse (minimum eigenvalue
        -7e-7, below -qmat.TOL_STRUCTURAL) is refused by the step guard."""
        rho = mes(0.3, 0.0, 0.0)
        with pytest.raises(StepTooLargeError, match=r"^state at t=5 has minimum eigenvalue -7"):
            evolve_series(rho, ModelParams(1.0, 0.9), [0.0, 5.0], step=0.85)

    def test_unstable_step_reported_at_first_bad_time(self, rng):
        rho = qmat.random_density_matrix(rng)
        with pytest.raises(StepTooLargeError, match=r"^state at t=5 has minimum eigenvalue"):
            evolve_series(rho, P_G1, [0.0, 5.0, 10.0], step=5.0)


class TestPositivityGuard:
    """The guard on a trajectory-shaped stack, at either side of the slack."""

    T_GRID = np.linspace(0.0, 2.0, 9)

    def _stack(self, min_eig, at=5):
        """Seeded full-rank states, the one at index ``at`` with its smallest
        eigenvalue set to ``min_eig`` (trace kept at one)."""
        stack = np.array(random_states(71, len(self.T_GRID)))
        g = np.random.default_rng(72)
        v, _ = np.linalg.qr(g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4)))
        w = np.array([0.5, 0.3, 0.2 - min_eig, min_eig])
        stack[at] = (v * w) @ qmat.dag(v)
        return stack

    def test_accepts_just_inside_the_slack(self):
        _check_positivity(self._stack(-qmat.TOL_STRUCTURAL * (1 - 1e-3)), self.T_GRID)

    def test_accepts_without_eigenvalue_scan(self, monkeypatch):
        """A trajectory inside the slack passes on the Cholesky factor alone."""
        stack = self._stack(-qmat.TOL_STRUCTURAL * (1 - 1e-3))

        def scan(*args, **kwargs):
            raise AssertionError("eigenvalue scan ran on a valid trajectory")

        monkeypatch.setattr(np.linalg, "eigvalsh", scan)
        _check_positivity(stack, self.T_GRID)

    def test_rejects_just_outside_naming_the_time(self):
        stack = self._stack(-qmat.TOL_STRUCTURAL * (1 + 1e-3))
        message = rf"^state at t={self.T_GRID[5]:g} has minimum eigenvalue -1.001e-09;"
        with pytest.raises(StepTooLargeError, match=message):
            _check_positivity(stack, self.T_GRID)

    def test_first_of_several_bad_times(self):
        stack = self._stack(-1e-3, at=7)
        stack[3] = np.diag([1.0, 1e-6, 0.0, -1e-6])
        message = rf"^state at t={self.T_GRID[3]:g} has minimum eigenvalue -1.000e-06;"
        with pytest.raises(StepTooLargeError, match=message):
            _check_positivity(stack, self.T_GRID)

    def test_nan_state_raises(self):
        stack = self._stack(0.0)
        stack[2, 1, 1] = np.nan
        message = rf"^state at t={self.T_GRID[2]:g} has minimum eigenvalue nan;"
        with pytest.raises(StepTooLargeError, match=message):
            _check_positivity(stack, self.T_GRID)

    @pytest.mark.parametrize("start", [werner(0.7), mes(0.3, 0.4, 1.9)], ids=["X", "non-X"])
    def test_first_bad_time_across_blocks(self, start):
        """Bad states in two blocks of 256 states: the first, not the worst, is named."""
        grid = model.time_grid(5.0, 1000)
        traj = evolve_series(start, ModelParams(1.0, 0.7), grid)
        traj[300] = np.diag([0.5, 0.5 + 2e-6, 0.0, -2e-6])
        traj[800] = np.diag([0.5, 0.5 + 5e-3, 0.0, -5e-3])
        message = rf"^state at t={grid[300]:g} has minimum eigenvalue -2.000e-06;"
        with pytest.raises(StepTooLargeError, match=message):
            _check_positivity(traj, grid)

    @pytest.mark.parametrize("start", [werner(0.7), mes(0.3, 0.4, 1.9)], ids=["X", "non-X"])
    @pytest.mark.parametrize(
        "shape", [(255,), (256,), (511,), (512,), (513,), (2001,), (3, 700)], ids=str
    )
    def test_around_block_boundaries(self, start, shape):
        """A trajectory around and across block boundaries passes, and one bad
        state in its last block is named."""
        grid = model.time_grid(5.0, int(np.prod(shape))).reshape(shape)
        traj = evolve_series(start, ModelParams(1.0, 0.7), grid).reshape(-1, 4, 4)
        assert qmat._psd_min_eigenvalues(traj) is None
        traj[-2] = np.diag([0.5, 0.5 + 2e-6, 0.0, -2e-6])
        message = rf"^state at t={grid.flat[-2]:g} has minimum eigenvalue -2.000e-06;"
        with pytest.raises(StepTooLargeError, match=message):
            _check_positivity(traj, grid.ravel())


class TestWorkingSet:
    """evolve_series fills its output in place and guards it in blocks: past the
    output its working memory (numpy buffers, which tracemalloc traces) does
    not grow with the grid."""

    @pytest.mark.parametrize("start", [bell("psi_plus"), mes(0.3, 0.4, 1.9)], ids=["X", "non-X"])
    def test_output_plus_under_one_mib_at_20001_samples(self, start):
        grid = model.time_grid(5.0, 20001)
        tracemalloc.start()
        try:
            traj = evolve_series(start, ModelParams(1.0, 0.99), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < traj.nbytes + 2**20


def _rk4_loop(rho, params, t_grid, step):
    """Classical four-stage RK4 on lindblad_rhs, stepping sample to sample:
    whole steps of ``step`` plus one shorter remainder step per interval,
    dropped when it is at most 1e-12 of the interval (rounding residue)."""
    out, y, t_prev = [], np.asarray(rho, dtype=complex), 0.0
    for t in t_grid:
        n = int(np.floor((t - t_prev) / step + 1e-12))
        rem = (t - t_prev) - n * step
        for h in [step] * n + ([rem] if rem > 1e-12 * (t - t_prev) else []):
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
            series = evolve_series(rho, params, grid, step=1e-2)
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
                single = evolve_series(rho, ModelParams(1.0, 0.6), t)
                assert np.abs(r - single).max() < 1e-10

    def test_times_of_any_shape_give_that_shape_of_states(self, rng):
        rho = qmat.random_density_matrix(rng)
        grid = np.linspace(0.1, 1.2, 6)
        out = evolve_series(rho, P_G1, grid.reshape(2, 3))
        assert out.shape == (2, 3, 4, 4)
        assert np.array_equal(out.reshape(6, 4, 4), evolve_series(rho, P_G1, grid))

    def test_spacing_over_step_overflow_names_the_step(self):
        rho = product_state(qmat.EXCITED, qmat.GROUND)
        with pytest.raises(ParameterError, match=r"^grid spacing over step 1e-309 overflows$"):
            evolve_series(rho, ModelParams(1e300, 1.0), [5e9, 1e10], step=1e-309)

    def test_rejects_bad_step(self):
        rho = product_state(qmat.EXCITED, qmat.GROUND)
        for step in (0.0, -1e-3, np.inf, np.nan):
            with pytest.raises(ParameterError):
                evolve_series(rho, P_G1, [0.0, 1.0], step=step)

    def test_rejects_unsorted_grid(self, rng):
        rho = qmat.random_density_matrix(rng)
        with pytest.raises(ValueError):
            evolve_series(rho, P_G1, [0.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            evolve_series(rho, P_G1, [-1.0, 2.0])

    @pytest.mark.parametrize(
        "grid,message",
        [
            ([np.nan], "nonnegative and finite, got t=nan"),
            ([0.0, 1.0, np.inf], "nonnegative and finite, got t=inf"),
            ([0.5, -1.0], "nonnegative and finite, got t=-1.0"),
            ([0.0, 2.0, 1.0, 0.5], "strictly ascending, got t=1.0 after t=2.0"),
            ([0.0, 1.0, 1.0], "strictly ascending, got t=1.0 after t=1.0"),
            # times of any shape are read in C order
            ([[0.0, 2.0], [1.0, 3.0]], "strictly ascending, got t=1.0 after t=2.0"),
        ],
        ids=["nan", "inf", "negative", "descending", "repeated", "2-d-column-major"],
    )
    def test_bad_time_names_it(self, grid, message):
        rho = product_state(qmat.EXCITED, qmat.GROUND)
        with pytest.raises(ParameterError, match=message):
            evolve_series(rho, P_G1, grid)
        if len(grid) == 1:
            with pytest.raises(ParameterError, match=message):
                evolve_series(rho, P_G1, grid[0])


def _stretches(draw):
    """Equal-gap stretches, each entered by a jump from the end of the last."""
    t, pieces = 0.0, []
    for _ in range(draw(st.integers(1, 4))):
        t += draw(st.floats(1e-3, 0.2))
        gap = draw(st.floats(1e-3, 0.05))
        pieces.append(t + gap * np.arange(draw(st.integers(1, 12))))
        t = pieces[-1][-1]
    return np.concatenate(pieces), len(pieces)


@st.composite
def _grids(draw):
    """A grid of one kind, its step, and the most runs its plan may have."""
    kind = draw(st.sampled_from(["random", "linspace", "stretches", "drift", "one point"]))
    step = draw(st.sampled_from([1e-2, 7e-3, 0.05]))
    if kind == "random":
        times = draw(st.lists(st.floats(0.0, 0.6), min_size=1, max_size=10, unique=True))
        grid = np.sort(times)
        return kind, grid, step, len(grid)
    if kind == "linspace":
        start = draw(st.floats(1e-3, 0.5))
        grid = np.linspace(start, start + draw(st.floats(0.05, 0.5)), draw(st.integers(2, 40)))
        return kind, grid, step, 2
    if kind == "stretches":
        grid, pieces = _stretches(draw)
        # a stretch is at most its jump and its equal gaps
        return kind, grid, step, 2 * pieces
    if kind == "drift":
        # gaps h (1 + 1e-14 (2i - 1)) that stray from any mean by far more than
        # the rounding of t; h is a whole number of steps, so every remainder
        # is 1e-14 of a gap or less and takes no step
        h = step * draw(st.integers(1, 3))
        i = np.arange(draw(st.integers(20, 60)))
        return kind, h * i * (1.0 + 1e-14 * i), step, len(i)
    return kind, np.array([draw(st.floats(0.0, 0.6))]), step, 1


class TestRunPlan:
    @settings(max_examples=80, deadline=None)
    @given(case=_grids(), g=st.sampled_from([0.0, 0.4, 1.0]), seed=st.integers(0, 2**31 - 1))
    def test_matches_stagewise_rk4(self, case, g, seed):
        kind, grid, step, most_runs = case
        lengths = np.diff(_run_plan(grid, step)[0])
        assert len(lengths) <= most_runs
        if kind == "drift":
            # from i ~ 11 on a gap drifts from the last by less than 8 ulps of t,
            # so the gaps chain into one stretch, whose mean gap strays from the
            # times: it falls back.  L samples stray from their chord by about
            # 1e-14 h L^2 / 4, within 8 ulps of t <= 60 h only up to L = 6.
            assert lengths.max() <= 6
        rho = qmat.random_density_matrix(np.random.default_rng(seed))
        params = ModelParams(1.3, g)
        series = evolve_series(rho, params, grid, step=step)
        assert np.abs(series - _rk4_loop(rho, params, grid, step)).max() <= 1e-13

    @pytest.mark.parametrize("start", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("samples", [101, 2001, 20001])
    def test_linspace_is_two_runs(self, samples, start):
        """The first sample, then one run of the equal gaps."""
        bounds, _, _ = _run_plan(np.linspace(start, 5.0, samples), 1e-3)
        assert bounds.tolist() == [0, 1, samples]

    @pytest.mark.parametrize("samples,bound", [(2001, 1e-13), (20001, 1e-12)])
    def test_close_to_exact_propagator(self, samples, bound):
        """A long run compounds the rounding of its one advance matrix."""
        grid = np.linspace(0.0, 5.0, samples)
        starts = [product_state(qmat.EXCITED, qmat.GROUND), bell("psi_plus")] + random_states(83, 1)
        for g in (0.3, 1.0):
            params = ModelParams(1.0, g)
            for rho in starts:
                deviation = evolve_series(rho, params, grid) - propagator.evolve(rho, params, grid)
                assert np.abs(deviation).max() <= bound

    def test_drifting_grid_builds_each_advance_once(self, monkeypatch):
        """Runs of one sample that repeat a (whole, rem) pair share its advance."""
        i = np.arange(1, 2001)
        grid = 2e-3 * i * (1 + 1e-14 * i)
        bounds, whole, rem = _run_plan(grid, 1e-3)
        pairs = len(set(zip(whole, rem)))
        assert (len(bounds) - 1, pairs) == (1999, 416)
        builds = []
        power = np.linalg.matrix_power
        monkeypatch.setattr(np.linalg, "matrix_power", lambda m, n: builds.append(n) or power(m, n))
        evolve_series(random_states(89, 1)[0], ModelParams(1.0, 0.7), grid)
        assert len(builds) == pairs


class TestOracleAccuracy:
    """RK4 at the default step is as close to the closed form as rounding lets
    it be, and depends on gamma0 t and gamma0 dt only: 501 samples on
    [0, 5/gamma0] with dt = 1e-3/gamma0.  Measured worst cases: 6.2e-14
    against propagator.evolve and 1.6e-15 against gamma0 = 1; a third-order
    step polynomial reaches 1.0e-10.  gamma0 = 4e307, near the largest
    allowed, is checked against the closed form only: its step (2.5e-311) and
    sample spacing (2.5e-310) are subnormal, with fewer significant bits, and
    RK4 there is 1.1e-13 from the closed form but 1.25e-13 from gamma0 = 1."""

    @pytest.mark.parametrize("g", [0.0, 1e-8, 0.3, 1.0 - 1e-8, 1.0])
    def test_matches_closed_form_at_every_rate_scale(self, g):
        for rho in ORACLE_STARTS:
            unit = evolve_series(rho, ModelParams(1.0, g), np.linspace(0.0, 5.0, 501))
            for gamma0 in (1e-300, 1e-3, 1.0, 1e3, 1e300, 4e307):
                params = ModelParams(gamma0, g)
                grid = np.linspace(0.0, 5.0 / gamma0, 501)
                rk4 = evolve_series(rho, params, grid, step=1e-3 / gamma0)
                assert np.abs(rk4 - propagator.evolve(rho, params, grid)).max() <= 1e-12
                if gamma0 < 4e307:
                    assert np.abs(rk4 - unit).max() <= 1e-14


_FAMILY_STARTS = [
    werner(0.7), mes(0.3, 0.4, 1.9), bell("psi_minus"), bell("phi_plus"),
    product_state(qmat.EXCITED, qmat.GROUND), product_state(qmat.EXCITED, qmat.EXCITED),
]


class TestOracleAccuracyDrawn:
    """TestOracleAccuracy's bound over drawn starts, g, log-uniform gamma0 (and
    4e307, near the largest gamma0 allowed) and grids: ``samples`` times on
    [0, 5/gamma0] at the default scaled step."""

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(["random", "pure", "family"]),
        seed=st.integers(0, 2**31 - 1),
        g=st.floats(0.0, 1.0),
        gamma0=st.floats(-300.0, 300.0).map(lambda x: 10.0**x),
        samples=st.integers(51, 2001),
    )
    @example(kind="random", seed=1, g=0.0, gamma0=1.0, samples=501)
    @example(kind="pure", seed=2, g=1e-8, gamma0=1e-300, samples=2001)
    @example(kind="random", seed=3, g=1.0 - 1e-8, gamma0=1e300, samples=51)
    @example(kind="family", seed=4, g=1.0, gamma0=4e307, samples=1000)
    def test_matches_closed_form(self, kind, seed, g, gamma0, samples):
        gen = np.random.default_rng(seed)
        if kind == "random":
            rho = qmat.random_density_matrix(gen)
        elif kind == "pure":
            rho = random_pure_state(gen)
        else:
            rho = _FAMILY_STARTS[seed % len(_FAMILY_STARTS)]
        params = ModelParams(gamma0, g)
        grid = np.linspace(0.0, 5.0 / gamma0, samples)
        rk4 = evolve_series(rho, params, grid, step=1e-3 / gamma0)
        assert np.abs(rk4 - propagator.evolve(rho, params, grid)).max() <= 1e-12


class TestOracleErrorBound:
    """RK4's global error against the closed form, bounded by the scheme's order
    (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.3) over drawn steps and
    horizons: ``(gamma0 dt)^4 gamma0 t + (n + 4) eps`` at a sample t reached by
    n steps.  L's modes decay at rates up to 2 gamma0, so each step errs by at
    most (2 gamma0 dt)^5/120 per unit of a mode, and n = t/dt contractive steps
    by (32/120) (gamma0 dt)^4 gamma0 t; the coefficient 1 leaves room for the
    modes' non-orthogonality (measured worst 0.37).  The rounding term counts
    a few eps per step and the closed form's own rounding at t = 0 (up to 1 eps
    measured); the measured worst is 0.48 of the bound.  A third-order step
    polynomial errs by about (gamma0 dt)^3 gamma0 t: 7 times the bound on the
    first example below, and past it on about 70 % of draws."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        g=st.sampled_from([0.0, 1e-8, 0.3, 0.7, 1.0 - 1e-8, 1.0]) | st.floats(0.0, 1.0),
        gamma0=st.floats(-300.0, 300.0).map(lambda x: 10.0**x),
        scaled_step=st.floats(-3.0, np.log10(0.05)).map(lambda x: 10.0**x),
        scaled_t_max=st.floats(-1.0, np.log10(20.0)).map(lambda x: 10.0**x),
        samples=st.integers(2, 300),
    )
    @example(seed=1, g=1.0, gamma0=1.0, scaled_step=0.01, scaled_t_max=20.0, samples=300)
    @example(seed=2, g=0.0, gamma0=1e-300, scaled_step=1e-3, scaled_t_max=20.0, samples=2)
    def test_deviation_within_the_order_bound(self, seed, g, gamma0, scaled_step, scaled_t_max,
                                              samples):
        rho = qmat.random_density_matrix(np.random.default_rng(seed))
        params = ModelParams(gamma0, g)
        scaled_t = np.linspace(0.0, scaled_t_max, samples)
        grid = scaled_t / gamma0
        rk4 = evolve_series(rho, params, grid, step=scaled_step / gamma0)
        deviation = np.abs(rk4 - propagator.evolve(rho, params, grid)).max(axis=(1, 2))
        steps = np.ceil(scaled_t / scaled_step)
        bound = scaled_step**4 * scaled_t + (steps + 4) * np.finfo(float).eps
        assert np.all(deviation <= bound), np.max(deviation / bound)


class TestSemigroupProperties:
    def test_composition(self):
        params = ModelParams(1.0, 0.8)
        for rho in random_states(67, 10):
            two_leg = evolve_series(evolve_series(rho, params, 0.7), params, 1.1)
            one_leg = evolve_series(rho, params, 1.8)
            assert np.abs(two_leg - one_leg).max() < 1e-7

    def test_linearity(self):
        params = ModelParams(1.0, 0.5)
        gen = np.random.default_rng(5)
        states = random_states(71, 10)
        for rho1, rho2 in zip(states[:5], states[5:]):
            lam = gen.uniform(0, 1)
            mixed = lam * rho1 + (1 - lam) * rho2
            lhs = evolve_series(mixed, params, 1.0)
            rhs = lam * evolve_series(rho1, params, 1.0) + (1 - lam) * evolve_series(
                rho2, params, 1.0
            )
            assert np.abs(lhs - rhs).max() < 1e-8

    def test_positivity_preserved(self):
        # 100 seeded initial states sampled at t in {0.1, 1, 5}/gamma0
        for rho in random_states(73, 100):
            for r in evolve_series(rho, P_G1, [0.1, 1.0, 5.0]):
                assert np.linalg.eigvalsh(0.5 * (r + r.conj().T))[0] >= -1e-7
