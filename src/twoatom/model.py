"""Dissipative generator for collective spontaneous emission and its RK4 solver.

Two identical two-level atoms decay with single-atom rate gamma0; photon
exchange between them adds a cross-damping channel with rate
gamma = g * gamma0, 0 <= g <= 1.  The generator is purely dissipative (no
Hamiltonian part):

    L(rho) = (gamma0/2) [2 sA rho sA+ + 2 sB rho sB+ - {sA+ sA + sB+ sB, rho}]
           + (gamma/2)  [2 sA rho sB+ + 2 sB rho sA+ - {sA+ sB + sB+ sA, rho}]

with sA = sigma_minus x I and sB = I x sigma_minus.  The numerical solver
here is the independent oracle for every closed-form result in
:mod:`twoatom.propagator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmat

SIGMA_MINUS_A = qmat.kron(qmat.SIGMA_MINUS, qmat.IDENTITY_2)
SIGMA_PLUS_A = qmat.kron(qmat.SIGMA_PLUS, qmat.IDENTITY_2)
SIGMA_MINUS_B = qmat.kron(qmat.IDENTITY_2, qmat.SIGMA_MINUS)
SIGMA_PLUS_B = qmat.kron(qmat.IDENTITY_2, qmat.SIGMA_PLUS)

# number-like and exchange-like anticommutator operators, precomputed
_N_OP = SIGMA_PLUS_A @ SIGMA_MINUS_A + SIGMA_PLUS_B @ SIGMA_MINUS_B
_M_OP = SIGMA_PLUS_A @ SIGMA_MINUS_B + SIGMA_PLUS_B @ SIGMA_MINUS_A
_IDENTITY_16 = np.eye(16, dtype=complex)

#: positivity slack allowed on integrator output before StepTooLargeError
POSITIVITY_GUARD = 1e-6


class StepTooLargeError(RuntimeError):
    """The integrator produced a state violating positivity beyond the guard."""


class ParameterError(ValueError):
    """A rate, step or time-grid parameter outside its domain."""


@dataclass(frozen=True)
class ModelParams:
    """Emission rate gamma0 > 0 and exchange ratio g in [0, 1].

    The generator's largest rate (4 gamma0) and the natural time 1/gamma0
    must both be finite floats.
    """

    gamma0: float
    g: float

    def __post_init__(self):
        if not 0.0 < self.gamma0 < np.inf:
            raise ParameterError(f"gamma0 must be positive and finite, got {self.gamma0}")
        if not (4.0 * self.gamma0 < np.inf and 1.0 / self.gamma0 < np.inf):
            raise ParameterError(
                f"gamma0={self.gamma0} is out of range: 4*gamma0 and 1/gamma0 must be finite"
            )
        if not 0.0 <= self.g <= 1.0:
            raise ParameterError(f"g must lie in [0, 1], got {self.g}")

    @property
    def gamma(self) -> float:
        """Photon exchange rate gamma = g * gamma0."""
        return self.g * self.gamma0


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step classical 4th-order Runge-Kutta configuration."""

    step: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.step < np.inf:
            raise ParameterError(f"step must be positive and finite, got {self.step}")


def time_grid(t_max: float, samples: int) -> np.ndarray:
    """``samples`` equally spaced, distinct times on [0, t_max]; t_max finite and positive."""
    if not 0.0 < t_max < np.inf:
        raise ParameterError(f"t_max must be positive and finite, got {t_max}")
    if samples < 1:
        raise ParameterError(f"samples must be at least 1, got {samples}")
    grid = np.linspace(0.0, t_max, samples)
    if np.any(np.diff(grid) <= 0):
        raise ParameterError(f"t_max={t_max} is too small for {samples} distinct times")
    return grid


def lindblad_rhs(rho: np.ndarray, params: ModelParams) -> np.ndarray:
    """Right-hand side L(rho): traceless, Hermitian for Hermitian input."""
    rho = np.asarray(rho, dtype=complex)
    own = (
        2.0 * SIGMA_MINUS_A @ rho @ SIGMA_PLUS_A
        + 2.0 * SIGMA_MINUS_B @ rho @ SIGMA_PLUS_B
        - _N_OP @ rho
        - rho @ _N_OP
    )
    cross = (
        2.0 * SIGMA_MINUS_A @ rho @ SIGMA_PLUS_B
        + 2.0 * SIGMA_MINUS_B @ rho @ SIGMA_PLUS_A
        - _M_OP @ rho
        - rho @ _M_OP
    )
    return 0.5 * params.gamma0 * own + 0.5 * params.gamma * cross


def liouvillian(params: ModelParams) -> np.ndarray:
    """16x16 matrix representing L on row-major vec(rho).

    Uses vec(A rho B) = (A kron B^T) vec(rho).  Agrees elementwise with
    :func:`lindblad_rhs`; the integrator steps this matrix.
    """

    def sandwich(a, b):
        return np.kron(a, b.T)

    i4 = qmat.IDENTITY_4
    own = (
        2.0 * sandwich(SIGMA_MINUS_A, SIGMA_PLUS_A)
        + 2.0 * sandwich(SIGMA_MINUS_B, SIGMA_PLUS_B)
        - sandwich(_N_OP, i4)
        - sandwich(i4, _N_OP)
    )
    cross = (
        2.0 * sandwich(SIGMA_MINUS_A, SIGMA_PLUS_B)
        + 2.0 * sandwich(SIGMA_MINUS_B, SIGMA_PLUS_A)
        - sandwich(_M_OP, i4)
        - sandwich(i4, _M_OP)
    )
    return 0.5 * params.gamma0 * own + 0.5 * params.gamma * cross


def _rk4_step_matrix(lv: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of y' = lv y: I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24.

    For a constant generator the four stages collapse to this polynomial
    (the scheme's stability function), so n steps are its n-th power.
    """
    hl = h * lv
    s = _IDENTITY_16
    for k in (4.0, 3.0, 2.0, 1.0):
        s = _IDENTITY_16 + (hl @ s) / k
    return s


def _check_positivity(traj: np.ndarray, t_grid: np.ndarray) -> None:
    """Raise at the first time whose state has an eigenvalue below the guard."""
    herm = 0.5 * (traj + traj.conj().swapaxes(-1, -2))
    min_eig = np.full(len(traj), np.nan)
    finite = np.isfinite(herm).all(axis=(-2, -1))
    min_eig[finite] = np.linalg.eigvalsh(herm[finite])[:, 0]
    bad = np.flatnonzero(~(min_eig >= -POSITIVITY_GUARD))
    if bad.size:
        i = bad[0]
        raise StepTooLargeError(
            f"state at t={t_grid[i]:g} has minimum eigenvalue {min_eig[i]:.3e}; shrink the step"
        )


def integrate(
    rho0: np.ndarray,
    params: ModelParams,
    t: float,
    config: IntegratorConfig = IntegratorConfig(),
) -> np.ndarray:
    """Propagate rho0 to time t with fixed-step RK4.  t = 0 returns rho0 as is."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0:
        return np.array(rho0, dtype=complex)
    return evolve_series(rho0, params, [t], config)[0]


def evolve_series(
    rho0: np.ndarray,
    params: ModelParams,
    t_grid,
    config: IntegratorConfig = IntegratorConfig(),
) -> np.ndarray:
    """States at every grid time from a single integrator pass, shape (T, 4, 4).

    The grid must be nonnegative and strictly ascending.  Each interval
    between samples (the first from t = 0) takes whole steps of
    ``config.step`` plus one shorter remainder step, so a step above the
    sample spacing acts as the spacing.  The advance matrix of an interval
    depends only on its (whole steps, remainder) pair and is built once per
    distinct pair.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size and t_grid[0] < 0:
        raise ValueError("grid times must be nonnegative")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("grid times must be strictly ascending")
    gaps = np.diff(t_grid, prepend=0.0)
    with np.errstate(over="ignore"):
        whole = np.floor(gaps / config.step + 1e-12)
    if not np.all(np.isfinite(whole)):
        raise ParameterError(f"grid spacing over step {config.step} overflows")
    rem = gaps - whole * config.step
    # a remainder that is rounding residue of the gap takes no step
    rem[rem <= 1e-12 * gaps] = 0.0
    pairs, index = np.unique(np.column_stack([whole, rem]), axis=0, return_inverse=True)
    lv = liouvillian(params)
    # an unstable step may overflow; the positivity guard reports it
    with np.errstate(over="ignore", invalid="ignore"):
        step = _rk4_step_matrix(lv, config.step)
        advance = []
        for n, h in pairs:
            a = np.linalg.matrix_power(step, int(n))
            advance.append(_rk4_step_matrix(lv, h) @ a if h > 0 else a)
        traj = np.empty((len(t_grid), 16), dtype=complex)
        y = np.asarray(rho0, dtype=complex).reshape(16)
        for i, k in enumerate(index.ravel()):
            y = advance[k] @ y
            traj[i] = y
        traj = traj.reshape(-1, 4, 4)
        _check_positivity(traj, t_grid)
    return traj
