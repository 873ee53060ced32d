import ast
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import twoatom
from twoatom import qmat
from twoatom.entanglement import concurrence
from twoatom.model import ModelParams, ParameterError, evolve_series, lindblad_rhs
from twoatom.propagator import (
    DegenerateRatesError,
    asymptotic_params,
    asymptotic_state,
    c_max,
    evolve,
    t_gamma,
)
from twoatom.states import bell, bell_diagonal, product_state, werner

import decimal_propagator
from conftest import ORACLE_STARTS, random_states, state_defect

P_G1 = ModelParams(1.0, 1.0)
EXCITED_GROUND = product_state(qmat.EXCITED, qmat.GROUND)


def _stationary_matrix(pars):
    """The g = 1 stationary state for (alpha, beta), element by element."""
    a, b = pars.alpha, pars.beta
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = a
    m[2, 2] = a
    m[1, 2] = -a
    m[2, 1] = -a
    m[1, 3] = b
    m[2, 3] = -b
    m[3, 1] = np.conj(b)
    m[3, 2] = -np.conj(b)
    m[3, 3] = 1.0 - 2.0 * a
    return m


class TestEvolveG1:
    def test_zero_time_identity(self):
        for rho in random_states(83, 5):
            assert np.abs(evolve(rho, P_G1, 0.0) - rho).max() < 1e-12

    def test_secular_term_feeds_single_excitation(self):
        # starting doubly excited, the only contribution to entry (2,2) at
        # time t is the secular gamma0*t*exp(-2*gamma0*t) term
        rho = product_state(qmat.EXCITED, qmat.EXCITED)
        out = evolve(rho, P_G1, 1.0)
        assert out[1, 1].real == pytest.approx(np.exp(-2.0), abs=1e-14)

    def test_matches_rk4_oracle(self):
        params = ModelParams(1.0, 1.0)
        worst = 0.0
        for rho in random_states(89, 50):
            series = evolve_series(rho, params, [0.3, 1.0, 3.0])
            for t, numeric in zip([0.3, 1.0, 3.0], series):
                closed = evolve(rho, P_G1, t)
                worst = max(worst, np.abs(closed - numeric).max())
        assert worst < 1e-6

    def test_outputs_are_valid_states(self):
        for rho in random_states(97, 10):
            for t in (0.2, 1.0, 7.0):
                out = evolve(rho, P_G1, t)
                assert state_defect(out) <= 1e-9
                assert abs(np.trace(out) - 1.0) < 1e-12
                assert np.abs(out - out.conj().T).max() < 1e-12

    def test_converges_to_stationary_state(self):
        for rho in random_states(101, 20):
            late = evolve(rho, P_G1, 50.0)
            assert np.abs(late - asymptotic_state(rho)).max() < 1e-8


class TestEvolve:
    G_VALUES = (0.0, 1e-8, 0.3, 0.7, 1.0 - 1e-8, 1.0)

    @pytest.mark.parametrize("g", G_VALUES)
    def test_matches_rk4_oracle_for_every_start(self, g):
        params = ModelParams(1.3, g)
        grid = np.linspace(0.0, 4.0, 9)
        worst = 0.0
        for rho in random_states(113, 20):
            exact, numeric = evolve(rho, params, grid), evolve_series(rho, params, grid)
            worst = max(worst, np.abs(exact - numeric).max())
        assert worst < 1e-6

    @pytest.mark.parametrize("g", G_VALUES)
    def test_late_time_is_stationary_without_warnings(self, g):
        rho = random_states(127, 1)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            late = evolve(rho, ModelParams(1.3, g), 1e300)
        assert np.abs(late - asymptotic_state(rho, g)).max() < 1e-14

    def test_satisfies_generator(self):
        """The central difference of evolve at t +- h matches lindblad_rhs at t.
        The error is O(h^2) + O(eps/h), 5.3e-11 here; the (1, 3) feed weight
        off by 1e-6 reads 2.7e-7, which the 1e-6 RK4 comparisons miss."""
        worst = 0.0
        for gamma0 in (1.0, 2.5):
            h = 1e-5 / gamma0
            t = np.array([0.1, 0.7, 2.0, 4.0]) / gamma0
            times = t[:, None] + np.array([-h, 0.0, h])
            for g in (0.0, 1e-8, 0.3, 0.99, 1.0 - 1e-12, 1.0):
                params = ModelParams(gamma0, g)
                for rho in random_states(131, 10):
                    before, now, after = np.moveaxis(evolve(rho, params, times), 1, 0)
                    slope = (after - before) / (2.0 * h)
                    worst = max(worst, np.abs(slope - lindblad_rhs(now, params)).max() / gamma0)
        assert worst < 1e-9

    @pytest.mark.parametrize("bad", [-1e-3, np.nan, np.inf])
    def test_rejects_negative_or_non_finite_time(self, bad):
        with pytest.raises(ParameterError):
            evolve(EXCITED_GROUND, P_G1, [0.0, bad])

    def test_bad_time_error_names_the_first_one(self):
        times = np.linspace(0.0, 5.0, 301)
        times[[120, 200]] = np.nan, -1.0
        with pytest.raises(ParameterError) as info:
            evolve(EXCITED_GROUND, P_G1, times)
        assert str(info.value) == "t must be nonnegative and finite, got nan"


def _deviation(states, exact) -> float:
    """Largest entry modulus of ``states`` minus the Decimal-pair ``exact``."""
    return max(
        abs(complex(float(Decimal(z.real) - re), float(Decimal(z.imag) - im)))
        for m, ref in zip(states, exact)
        for row, ref_row in zip(m.tolist(), ref)
        for z, (re, im) in zip(row, ref_row)
    )


class TestDecimalReference:
    """evolve against the 50-digit rate law of tests/decimal_propagator.py,
    from the same double gamma = fl(g gamma0), on every entry: eight starts,
    g at both ends and 1e-12 from them, gamma0 over 600 decades and gamma0 t
    from 1e-6 to 1e6.  Measured worst: 4.6e-16, on the excited x ground start
    at g = 0, gamma0 t = 1e-6."""

    @pytest.mark.parametrize("g", [0.0, 1e-12, 0.3, 1.0 - 1e-12, 1.0])
    def test_within_four_eps(self, g):
        starts = ORACLE_STARTS + [bell("phi_plus"), product_state(qmat.EXCITED, qmat.EXCITED)]
        for rho in starts:
            for gamma0 in (1.0, 1e-300, 1e300):
                times = [x / gamma0 for x in (1e-6, 0.5, 5.0, 40.0, 1e6)]
                exact = decimal_propagator.evolve(rho, gamma0, g, times)
                got = evolve(rho, ModelParams(gamma0, g), times)
                assert _deviation(got, exact) <= 4 * np.finfo(float).eps


_PACKAGE = Path(twoatom.__file__).parent


def _imports(path: Path) -> set:
    """(from, name) pairs of the imports in a Python file; ``from`` is None
    for ``from . import name`` and ``name`` None for a plain ``import``."""
    tree = ast.parse(path.read_text())
    pairs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            pairs |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            pairs |= {(alias.name, None) for alias in node.names}
    return pairs


def test_rk4_oracle_shares_no_code_with_propagator():
    """The oracle imports nothing from the propagator, and the propagator takes
    from the oracle's module only the parameter type and its error."""
    assert not any("propagator" in f"{src}.{name}" for src, name in _imports(_PACKAGE / "model.py"))
    propagator = _imports(_PACKAGE / "propagator.py")
    assert {name for src, name in propagator if src and src.endswith("model")} == {
        "ModelParams", "ParameterError",
    }
    assert not any(name == "model" for _, name in propagator)


def test_no_file_imports_an_undeclared_dependency():
    """scipy, mpmath and sympy are no declared dependency (pyproject.toml), though
    an environment may have them: the package, its tests and its scripts import none."""
    root = Path(__file__).resolve().parents[1]
    files = [f for d in (_PACKAGE, root / "tests", root / "scripts") for f in d.rglob("*.py")]
    assert len(files) >= 20
    for f in files:
        top = {(src or name or "").split(".")[0] for src, name in _imports(f)}
        assert not top & {"scipy", "mpmath", "sympy"}, f


class TestStackedTimes:
    def test_array_time_stacks_per_time_states(self):
        grid = np.linspace(0.0, 4.0, 9)
        rho = random_states(109, 1)[0]
        cases = [
            lambda t: evolve(rho, ModelParams(1.3, 1.0), t),
            lambda t: evolve(rho, ModelParams(1.3, 0.6), t),
            lambda t: evolve(EXCITED_GROUND, ModelParams(1.3, 0.6), t),
            lambda t: evolve(bell("psi_minus"), ModelParams(1.3, 0.6), t),
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
            assert state_defect(stat) <= 1e-12
            assert np.abs(lindblad_rhs(stat, params)).max() < 1e-10

    def test_matches_hand_built_stationary_family(self):
        for rho in random_states(109, 30):
            assert np.abs(asymptotic_state(rho) - _stationary_matrix(asymptotic_params(rho))).max() <= 1e-15

    def test_below_g1_only_ground_is_dark(self):
        ground = product_state(qmat.GROUND, qmat.GROUND)
        for g in (0.0, 0.5, 1.0 - 2**-53):
            for rho in random_states(139, 5):
                assert np.abs(asymptotic_state(rho, g) - ground).max() <= 1e-15

    def test_g_out_of_range(self):
        for g in (-0.1, 1.5, np.nan):
            with pytest.raises(ParameterError):
                asymptotic_state(EXCITED_GROUND, g)


class TestExcitedGroundGeneral:
    def test_initial_state(self):
        out = evolve(EXCITED_GROUND, ModelParams(1.0, 0.5), 0.0)
        assert np.allclose(out, EXCITED_GROUND, atol=1e-15)

    def test_coherence_magnitude(self):
        # |off-diagonal| = exp(-gamma0 t) sinh(gamma t) / 2 at gamma0=1, gamma=0.5, t=1
        out = evolve(EXCITED_GROUND, ModelParams(1.0, 0.5), 1.0)
        expected = 0.5 * np.exp(-1.0) * np.sinh(0.5)
        assert abs(out[1, 2]) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.09585012489105091, abs=1e-15)

    @pytest.mark.parametrize("g", [0.3, 0.7, 0.99])
    def test_matches_rk4_oracle(self, g):
        params = ModelParams(1.0, g)
        for t in (0.5, 2.0):
            numeric = evolve_series(EXCITED_GROUND, params, t)
            closed = evolve(EXCITED_GROUND, params, t)
            assert np.abs(closed - numeric).max() < 1e-6

    def test_outputs_valid(self):
        for t in np.linspace(0, 8, 9):
            assert state_defect(evolve(EXCITED_GROUND, ModelParams(1.0, 0.8), t)) <= 1e-12


class TestBellGeneral:
    def test_initial_states(self):
        params = ModelParams(1.0, 0.9)
        assert np.allclose(evolve(bell("psi_plus"), params, 0.0), bell("psi_plus"), atol=1e-15)
        assert np.allclose(evolve(bell("psi_minus"), params, 0.0), bell("psi_minus"), atol=1e-15)

    def test_subradiant_stability_at_equal_rates(self):
        rho = bell("psi_minus")
        for t in (0.5, 4.0):
            assert np.abs(evolve(rho, P_G1, t) - rho).max() < 1e-15

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_matches_rk4_oracle(self, sign):
        params = ModelParams(1.0, 0.99)
        rho0 = bell("psi_plus" if sign > 0 else "psi_minus")
        for t in (1.0, 5.0):
            numeric = evolve_series(rho0, params, t)
            closed = evolve(rho0, params, t)
            assert np.abs(closed - numeric).max() < 1e-6

    def test_superradiant_reduces_to_g1_propagator(self):
        # the g < 1 solution tends to the g = 1 one, whose secular term it contains
        rho0 = bell("psi_plus")
        for t in (0.3, 1.0, 2.5):
            a = evolve(rho0, ModelParams(1.0, 1.0 - 1e-12), t)
            b = evolve(rho0, P_G1, t)
            assert np.abs(a - b).max() < 1e-10


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

    @pytest.mark.parametrize("gamma0", [1.0, 2.5])
    # a subnormal gamma / gamma0 keeps about 11 bits at 1e-320
    @pytest.mark.parametrize("g,rel", [(1e-320, 1e-3), (1e-310, 1e-12), (1e-300, 1e-12),
                                       (1e-8, 1e-12)])
    def test_small_exchange_limits(self, gamma0, g, rel):
        # t_gamma -> 1/gamma0 and c_max -> g/e as g -> 0, with relative corrections O(g^2)
        assert t_gamma(gamma0, g * gamma0) == pytest.approx(1.0 / gamma0, rel=rel, abs=0)
        assert c_max(gamma0, g * gamma0) == pytest.approx(g / np.e, rel=rel, abs=0)

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
            c = concurrence(evolve(rho0, P_G1, t))
            assert c == pytest.approx(np.exp(-t) * np.sinh(t), abs=1e-10)

    def test_stationary_concurrence_doubles_alpha(self):
        for rho in random_states(107, 30):
            assert concurrence(asymptotic_state(rho)) == pytest.approx(
                2 * abs(asymptotic_params(rho).alpha), abs=1e-10
            )
