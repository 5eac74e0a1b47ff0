import numpy as np
import pytest

from rdmd import rng
from rdmd.rng import normal_matrix


@pytest.fixture
def use_workers(monkeypatch):
    """use_workers(n): run `rng.parallel_map` on n workers, through a fresh
    pool that is shut down when the test ends."""

    used = []

    def use(n: int) -> None:
        monkeypatch.setattr(rng, "_worker_count", lambda: n)
        monkeypatch.setattr(rng, "_pool", None)
        used.append(n)

    yield use
    if used and rng._pool is not None:
        rng._pool[1].shutdown()


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


# Header shapes whose payload could not be allocated: 8e18 bytes, which
# numpy refuses with a MemoryError, and 2^73 bytes, which it refuses as
# "array is too big".
OVERSIZED_SHAPES = [(10**9, 10**9), (2**40, 2**30)]


def write_oversized_sms(path, rows: int, cols: int) -> None:
    """A 92-byte SMS file: the header `write_sms` writes, claiming
    rows x cols, then zero bytes."""
    from rdmd.datasets import _sms_header

    with open(path, "wb") as fh:
        fh.write(_sms_header(rows, cols).ljust(92, b"\0"))


def write_v1_sms(path, x) -> None:
    """`x` as a version 1 SMS file: the 28-byte header, then the payload."""
    from rdmd.datasets import _HEADER, SMS_DTYPE_F64, SMS_MAGIC

    a = np.ascontiguousarray(x, dtype="<f8")
    header = _HEADER.pack(SMS_MAGIC, 1, a.shape[0], a.shape[1], SMS_DTYPE_F64)
    with open(path, "wb") as fh:
        fh.write(header + a.tobytes())


@pytest.fixture
def dyadic_spectrum_matrix():
    """100 x 80 test matrix with singular values 2^-1 ... 2^-80."""
    return matrix_with_spectrum(100, 80, 2.0 ** -np.arange(1, 81), seed=1234)
