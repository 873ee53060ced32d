"""Reference solutions computed without the twoatom package.

The benchmark checks every job against these.  Nothing here imports
twoatom: the generator is built from the Lindblad formula in the collective
channels, the propagator is a matrix exponential of that generator, and the
concurrence comes from Wootters' tau matrix of a square-root factor.  So the
reference shares no code path with the RK4 integrator, the closed forms or
the package's concurrence.

Basis and conventions follow the package README: e1=|11>, e2=|10>,
e3=|01>, e4=|00>, with |1> = (1, 0) excited and |0> = (0, 1) ground.
"""

from __future__ import annotations

import functools

import numpy as np

KET = {"excited": np.array([1.0, 0.0]), "ground": np.array([0.0, 1.0])}
BELL_ORDER = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")
BELL = {
    "phi_plus": np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0),
    "phi_minus": np.array([-1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0),
    "psi_plus": np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0),
    "psi_minus": np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0),
}
_LOWER = np.array([[0.0, 0.0], [1.0, 0.0]])  # |ground><excited|
_YY = np.kron([[0.0, -1j], [1j, 0.0]], [[0.0, -1j], [1j, 0.0]])
_I4 = np.eye(4)
#: time after which every g = 1 transient is below exp(-60) (units of 1/gamma0)
_STATIONARY_T = 60.0


def projector(ket) -> np.ndarray:
    v = np.asarray(ket, dtype=complex)
    return np.outer(v, v.conj())


def family_state(family: str, params: dict) -> np.ndarray:
    """Density matrix of a named state-file family, built from its ket or mixture."""
    if family == "product":
        psi, phi = ([complex(re, im) for re, im in params[k]] for k in ("psi", "phi"))
        return projector(np.kron(psi, phi))
    if family == "basis":
        return projector(np.kron(KET[params["a"]], KET[params["b"]]))
    if family == "bell":
        return projector(BELL[params["which"]])
    if family == "mes":
        a, t1, t2 = params["a"], params["theta1"], params["theta2"]
        b = np.sqrt(1.0 - a * a)
        ket = [a, b * np.exp(1j * t1), b * np.exp(1j * t2), -a * np.exp(1j * (t1 + t2))]
        return projector(np.array(ket) / np.sqrt(2.0))
    if family == "bell_diagonal":
        return sum(w * projector(BELL[n]) for w, n in zip(params["p"], BELL_ORDER))
    if family == "werner":
        p = params["p"]
        return (1.0 - p) * _I4 / 4.0 + p * projector(BELL["phi_plus"])
    if family == "mems":
        d = params["delta"]
        h = 1.0 / 3.0 if d <= 2.0 / 3.0 else d / 2.0
        m = np.diag([h, 1.0 - 2.0 * h, 0.0, h]).astype(complex)
        m[0, 3] = m[3, 0] = d / 2.0
        return m
    raise ValueError(f"unknown family {family!r}")


def generator(gamma0: float, g: float) -> np.ndarray:
    """16x16 Lindblad generator acting on column-stacked vec(rho).

    The rate matrix [[gamma0, gamma], [gamma, gamma0]] is diagonal in the
    collective channels J+- = (sA +- sB)/sqrt2 with rates gamma0 (1 +- g), so
    L = sum over +- of gamma0 (1 +- g) D[J+-], with
    D[J] rho = J rho J^+ - {J^+ J, rho}/2 and vec(A X B) = (B^T kron A) vec(X).
    """
    sa = np.kron(_LOWER, np.eye(2))
    sb = np.kron(np.eye(2), _LOWER)
    lv = np.zeros((16, 16), dtype=complex)
    for sign in (1.0, -1.0):
        j = (sa + sign * sb) / np.sqrt(2.0)
        jdj = j.conj().T @ j
        dissipator = np.kron(j.conj(), j) - 0.5 * np.kron(_I4, jdj) - 0.5 * np.kron(jdj.T, _I4)
        lv += gamma0 * (1.0 + sign * g) * dissipator
    return lv


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring a degree-18 Taylor polynomial."""
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = max(0, int(np.ceil(np.log2(norm / 0.25)))) if norm > 0.25 else 0
    a = a / 2.0**squarings
    term = np.eye(len(a), dtype=complex)
    out = term.copy()
    for k in range(1, 19):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


@functools.lru_cache(maxsize=64)
def _step(gamma0: float, g: float, h: float) -> np.ndarray:
    return expm(generator(gamma0, g) * h)


def _vec(rho: np.ndarray) -> np.ndarray:
    return np.swapaxes(rho, -1, -2).reshape(rho.shape[:-2] + (16,))


def _unvec(v: np.ndarray) -> np.ndarray:
    return np.swapaxes(v.reshape(v.shape[:-1] + (4, 4)), -1, -2)


def trajectory(rho0: np.ndarray, gamma0: float, g: float, t_max: float, samples: int) -> np.ndarray:
    """Exact states on linspace(0, t_max, samples) as a (samples, 4, 4) stack."""
    step = _step(gamma0, g, t_max / (samples - 1))
    out = np.empty((samples, 16), dtype=complex)
    y = _vec(np.asarray(rho0, dtype=complex))
    for k in range(samples):
        out[k] = y
        y = step @ y
    return _unvec(out)


def stationary(rhos: np.ndarray) -> np.ndarray:
    """g = 1 limit t -> infinity of each state in a (..., 4, 4) stack."""
    flow = _step(1.0, 1.0, _STATIONARY_T)
    return _unvec(_vec(np.asarray(rhos, dtype=complex)) @ flow.T)


def concurrence(rhos: np.ndarray) -> np.ndarray:
    """Wootters concurrence of each state in a (..., 4, 4) stack.

    With rho = W W^+ (W from the eigendecomposition), the lambdas are the
    singular values of tau = W^T (sy x sy) W.
    """
    rhos = np.asarray(rhos, dtype=complex)
    w, v = np.linalg.eigh(0.5 * (rhos + np.conj(np.swapaxes(rhos, -1, -2))))
    factor = v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    tau = np.swapaxes(factor, -1, -2) @ _YY @ factor
    lam = np.linalg.svd(tau, compute_uv=False)
    return np.clip(lam[..., 0] - lam[..., 1:].sum(axis=-1), 0.0, 1.0)


def purity(rhos: np.ndarray) -> np.ndarray:
    """tr(rho^2) = sum |rho_jk|^2 for Hermitian rho."""
    return (np.abs(np.asarray(rhos)) ** 2).sum(axis=(-2, -1))


def peak(gamma0: float, g: float) -> tuple[float, float]:
    """Time and height of the maximum of exp(-gamma0 t) sinh(g gamma0 t)."""
    gamma = g * gamma0
    t = np.log((gamma0 + gamma) / (gamma0 - gamma)) / (2.0 * gamma)
    return float(t), float(np.exp(-gamma0 * t) * np.sinh(gamma * t))
