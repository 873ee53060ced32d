"""Dissipative generator for collective spontaneous emission and its RK4 solver.

Two identical two-level atoms decay with single-atom rate gamma0; photon
exchange between them adds a cross-damping channel with rate
gamma = g * gamma0, 0 <= g <= 1.  The generator is purely dissipative (no
Hamiltonian part):

    L(rho) = (gamma0/2) [2 sA rho sA+ + 2 sB rho sB+ - {sA+ sA + sB+ sB, rho}]
           + (gamma/2)  [2 sA rho sB+ + 2 sB rho sA+ - {sA+ sB + sB+ sA, rho}]

with sA = sigma_minus x I and sB = I x sigma_minus.  :func:`lindblad_rhs`
is the one definition of L, built on :func:`_channels`; the 16x16 Liouvillian
applies the channels to the 16 matrix units once, at import.  The solver is
the independent oracle for every closed-form result in :mod:`twoatom.propagator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmat

__all__ = [
    "ModelParams", "ParameterError", "StepTooLargeError", "evolve_series", "lindblad_rhs",
    "liouvillian",
]

SIGMA_MINUS_A = np.kron(qmat.SIGMA_MINUS, qmat.IDENTITY_2)
SIGMA_PLUS_A = np.kron(qmat.SIGMA_PLUS, qmat.IDENTITY_2)
SIGMA_MINUS_B = np.kron(qmat.IDENTITY_2, qmat.SIGMA_MINUS)
SIGMA_PLUS_B = np.kron(qmat.IDENTITY_2, qmat.SIGMA_PLUS)

# number-like and exchange-like anticommutator operators, precomputed
_N_OP = SIGMA_PLUS_A @ SIGMA_MINUS_A + SIGMA_PLUS_B @ SIGMA_MINUS_B
_M_OP = SIGMA_PLUS_A @ SIGMA_MINUS_B + SIGMA_PLUS_B @ SIGMA_MINUS_A
_IDENTITY_16 = np.eye(16, dtype=complex)
#: the 16 matrix units E_k, with vec(E_k) the k-th basis vector of row-major vec
_UNITS = _IDENTITY_16.reshape(16, 4, 4)

#: smallest gamma0 * step.  Below it the diagonal of the step polynomial
#: I + hL + ... loses the digits of hL to rounding, and that loss compounds
#: over ~1/(gamma0 * step) steps (errors per step size: CHANGES.md, "One exact propagator").
MIN_SCALED_STEP = 1e-10


class StepTooLargeError(RuntimeError):
    """The integrator produced a state violating positivity beyond qmat.TOL_STRUCTURAL."""


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


def time_grid(t_max: float, samples: int) -> np.ndarray:
    """``samples`` equally spaced, distinct times on [0, t_max]; t_max finite and positive."""
    if not 0.0 < t_max < np.inf:
        raise ParameterError(f"t_max must be positive and finite, got {t_max}")
    if samples < 1:
        raise ParameterError(f"samples must be at least 1, got {samples}")
    try:
        grid = np.linspace(0.0, t_max, samples)
    except (MemoryError, ValueError) as exc:  # numpy's "array is too big" is a ValueError
        raise ParameterError(f"samples={samples} is too many to allocate") from exc
    if np.any(np.diff(grid) <= 0):
        raise ParameterError(f"t_max={t_max} is too small for {samples} distinct times")
    return grid


def _channels(rho: np.ndarray):
    """The own and cross brackets of L(rho) without their rates: ``(own, cross)``."""
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
    return own, cross


def lindblad_rhs(rho: np.ndarray, params: ModelParams) -> np.ndarray:
    """Right-hand side L(rho) of a 4x4 matrix or a stack; traceless, Hermitian for Hermitian rho."""
    own, cross = _channels(qmat._as_states(rho))
    return 0.5 * params.gamma0 * own + 0.5 * params.gamma * cross


#: the channels of the 16 matrix units on row-major vec(rho), column k from E_k; read-only
_L_OWN, _L_CROSS = (c.reshape(16, 16).T for c in _channels(_UNITS))
_L_OWN.flags.writeable = _L_CROSS.flags.writeable = False


def liouvillian(params: ModelParams) -> np.ndarray:
    """16x16 matrix representing L on row-major vec(rho); the integrator steps it.

    Column k is vec(L(E_k)) for the k-th matrix unit E_k, bit for bit: the
    channels of E_k, applied once at import, weighted as :func:`lindblad_rhs` does.
    """
    return 0.5 * params.gamma0 * _L_OWN + 0.5 * params.gamma * _L_CROSS


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
    """Raise at the first time whose state has an eigenvalue below -qmat.TOL_STRUCTURAL.

    That is the slack the entanglement measures accept, so a trajectory that
    passes here can be measured.  The check is qmat's one PSD verdict
    (:func:`qmat._psd_min_eigenvalues`: X states by their 2x2 blocks, the rest
    by a stacked Cholesky); failing it, the spectra name the first bad time.
    """
    min_eig = qmat._psd_min_eigenvalues(traj)
    if min_eig is None:
        return
    bad = np.flatnonzero(~(min_eig >= -qmat.TOL_STRUCTURAL))
    if bad.size:
        i = bad[0]
        raise StepTooLargeError(
            f"state at t={t_grid[i]:g} has minimum eigenvalue {min_eig[i]:.3e}; shrink the step"
        )


def _run_plan(t_grid: np.ndarray, step: float):
    """The RK4 schedule of a checked grid: ``(bounds, whole, rem)``.

    Run r holds samples ``bounds[r]:bounds[r + 1]``, each of them an advance
    of ``whole[r]`` steps plus a remainder step ``rem[r]`` on from the sample
    before it (the first from t = 0).  A run is a maximal stretch of
    consecutive gaps that agree within ``8 eps t``, a few ulps of the sample
    time t (the rounding of the times), and it takes the mean of its gaps.
    Should that mean place a sample more than ``8 eps t`` off its grid time
    (the gaps drift), the run falls back to runs of one sample, each taking
    its own gap.
    """
    t = np.concatenate(([0.0], t_grid))
    gaps = np.diff(t)
    tol = 8.0 * np.finfo(float).eps * t_grid
    first = np.ones(len(gaps), dtype=bool)
    first[1:] = ~(np.abs(np.diff(gaps)) <= tol[1:])

    def runs():
        bounds = np.append(np.flatnonzero(first), len(gaps))
        return bounds, (t[bounds[1:]] - t[bounds[:-1]]) / np.diff(bounds)

    bounds, mean = runs()
    run = np.cumsum(first) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        placed = t[bounds[:-1]][run] + (np.arange(len(gaps)) + 1 - bounds[:-1][run]) * mean[run]
        off = ~(np.abs(placed - t_grid) <= tol)
    if off.any():
        first |= np.logical_or.reduceat(off, bounds[:-1])[run]
        bounds, mean = runs()
    with np.errstate(over="ignore"):
        whole = np.floor(mean / step + 1e-12)
    if not np.all(np.isfinite(whole)):
        raise ParameterError(f"grid spacing over step {step} overflows")
    rem = mean - whole * step
    # a remainder that is rounding residue of the gap takes no step
    rem[rem <= 1e-12 * mean] = 0.0
    return bounds, whole, rem


def evolve_series(rho0: np.ndarray, params: ModelParams, t_grid, step: float = 1e-3) -> np.ndarray:
    """States at every grid time from one 4x4 state rho0 (``qmat._as_states``), in one pass.

    Times of shape S give shape S + (4, 4), so a scalar time one 4x4 state, and
    a time of 0 rho0 as is.  The grid must be finite, nonnegative and strictly
    ascending in C order, and ``step`` finite with ``params.gamma0 * step`` at
    least :data:`MIN_SCALED_STEP`; :class:`ParameterError` names the first
    offending time or the step.  Each interval between samples (the first from
    t = 0) takes whole steps of ``step`` plus one shorter remainder step, so a
    step above the sample spacing acts as the spacing.  A run of equal gaps
    (:func:`_run_plan`) takes their mean, which equals every one of them within
    a few ulps of t; a ``linspace`` grid is at most two runs, its first sample
    and the rest.  Each run takes the advance matrix of its (whole steps,
    remainder) pair, built once per distinct pair in the call, and is filled by
    doubling: its first k states times the k-th power of that matrix give the
    next k, in place.  One advance matrix per run compounds its rounding
    coherently, as on any grid of one gap (deviations measured: CHANGES.md,
    "The RK4 trajectory by runs").  The positivity guard checks the states in
    blocks, with one pass's verdict; past the output, memory does not grow with the grid.
    """
    floor = MIN_SCALED_STEP / params.gamma0
    if not floor <= step < np.inf:
        raise ParameterError(
            f"step must be finite and at least {MIN_SCALED_STEP}/gamma0 = {floor:g} "
            f"(below it rounding swamps RK4), got {step}"
        )
    times = np.asarray(t_grid, dtype=float)
    t_grid = times.reshape(-1)
    bad = np.flatnonzero(~((t_grid >= 0) & (t_grid < np.inf)))
    if bad.size:
        raise ParameterError(f"grid times must be nonnegative and finite, got t={t_grid[bad[0]]}")
    back = np.flatnonzero(np.diff(t_grid) <= 0)
    if back.size:
        i = back[0] + 1
        raise ParameterError(
            f"grid times must be strictly ascending, got t={t_grid[i]} after t={t_grid[i - 1]}"
        )
    bounds, whole, rem = _run_plan(t_grid, step)
    lv = liouvillian(params)
    # an unstable step may overflow; the positivity guard reports it
    with np.errstate(over="ignore", invalid="ignore"):
        step_matrix = _rk4_step_matrix(lv, step)
        # rows are row-major vec(rho), so they take the transposed advance from
        # the right: row 0 is rho0, row i + 1 the state at t_grid[i]
        traj = np.empty((len(t_grid) + 1, 16), dtype=complex)
        traj[0] = qmat._as_states(rho0, stack=False).reshape(16)
        # runs of one sample on a drifting grid repeat a few (whole, rem) pairs
        advances = {}
        for s, e, n, h in zip(bounds[:-1], bounds[1:], whole, rem):
            power = advances.get((n, h))
            if power is None:
                power = np.linalg.matrix_power(step_matrix, int(n))
                if h > 0:
                    power = _rk4_step_matrix(lv, h) @ power
                power = advances[n, h] = power.T
            # rows s .. s + f - 1 are filled; power is the f-th power of the advance
            f = 1
            while f <= e - s:
                m = min(f, e - s + 1 - f)
                np.matmul(traj[s : s + m], power, out=traj[s + f : s + f + m])
                f += m
                if f <= e - s:
                    power = power @ power
        traj = traj[1:].reshape(-1, 4, 4)
        _check_positivity(traj, t_grid)
    return traj.reshape(times.shape + (4, 4))
