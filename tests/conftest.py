import numpy as np
import pytest

from twoatom import qmat


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def random_states(seed: int, n: int):
    """Seeded full-rank Gaussian-ensemble states, reproducible across tests."""
    gen = np.random.default_rng(seed)
    return [qmat.random_density_matrix(gen) for _ in range(n)]


def random_pure_state(rng: np.random.Generator) -> np.ndarray:
    """Rank-1 random state from a normalized complex Gaussian vector."""
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_qubit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def random_single_qubit_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary via QR with phase fix."""
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
