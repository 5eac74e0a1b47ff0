import numpy as np
import pytest

from rdmd.rng import normal_matrix


def matrix_with_spectrum(n: int, m: int, sigmas, seed: int) -> np.ndarray:
    """U diag(sigmas) V^T with seeded random orthonormal factors.

    The factors come from LAPACK's Householder QR, not from the library's
    `thin_qr_q`, so the test matrices do not move with the code under test.
    """
    sigmas = np.asarray(sigmas, dtype=np.float64)
    r = sigmas.size
    u = np.linalg.qr(normal_matrix(n, r, seed))[0]
    v = np.linalg.qr(normal_matrix(m, r, seed + 1))[0]
    return (u * sigmas) @ v.T


def rotation_sequence(n: int, steps: int, theta: float, seed: int) -> np.ndarray:
    """Planar rotation embedded in R^n by a random injection.

    Snapshots x_j = P R(theta)^j z0 evolve under a rank-2 propagator with
    eigenvalues exp(+-i*theta).
    """
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    inject = normal_matrix(n, 2, seed)
    z = np.array([1.0, 0.25])
    cols = []
    for _ in range(steps):
        cols.append(inject @ z)
        z = rot @ z
    return np.column_stack(cols)


@pytest.fixture
def dyadic_spectrum_matrix():
    """100 x 80 test matrix with singular values 2^-1 ... 2^-80."""
    return matrix_with_spectrum(100, 80, 2.0 ** -np.arange(1, 81), seed=1234)
