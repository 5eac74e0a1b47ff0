"""Synthetic linear-dynamics data, noise injection, and the SMS file format.

SMS ("snapshot matrix store") layout, fixed little-endian regardless of
host byte order:

    offset  size  field
    0       4     magic  b"RDMD"
    4       4     format version (uint32), 2 (1 is still read)
    8       8     rows (uint64)
    16      8     cols (uint64)
    24      4     dtype code (uint32), 1 = float64
    28      4     zero padding (version 2 only)
    32      -     payload: rows*cols float64 values, row-major

Version 1 has no padding, so its payload starts at byte 28. Version 2's
payload is 8-byte aligned, so `read_sms` maps it read-only and returns a
view of the map; a version 1 payload is read into a new array.

Row-major payloads make a contiguous range of rows a contiguous range of
bytes, which is what the blocked out-of-core reader relies on.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import memguard
from .blocked import partition_rows
from .errors import (
    BadMagic,
    IoFailure,
    NonFiniteInput,
    ShapeMismatch,
    TooManyModes,
    TruncatedPayload,
    UnsupportedVersion,
)
from .linalg import _as_matrix, _non_finite_error, _real_product
from .rng import CounterStream, add_normals_into, derive_seed, parallel_map

SMS_MAGIC = b"RDMD"
SMS_VERSION = 2
SMS_DTYPE_F64 = 1
_HEADER = struct.Struct("<4sIQQI")  # the fields every version shares
# payload offset by version: version 2 pads the 28 header bytes to 32
_PAYLOAD_OFFSET = {1: _HEADER.size, 2: 32}
SMS_HEADER_BYTES = _PAYLOAD_OFFSET[SMS_VERSION]  # 32


@dataclass(frozen=True)
class ModeSpec:
    """One requested mode of the synthetic dynamics.

    A non-real eigenvalue implies its conjugate partner (added
    automatically with conjugated amplitude and profile) so the generated
    snapshots are real. Real eigenvalues keep only the real part of the
    requested amplitude for the same reason.

    profile: "smooth" draws a seeded low-frequency random field,
    "harmonic" uses a fixed sinusoid at `frequency` cycles across the
    state vector (complex modes get the traveling-wave form e^{2*pi*i*f*t}).
    """

    eigenvalue: complex
    amplitude: complex = 1.0 + 0.0j
    profile: str = "smooth"
    frequency: float | None = None

    def __post_init__(self):
        if self.profile not in ("smooth", "harmonic"):
            raise ValueError(f"unknown profile kind {self.profile!r}")
        if self.profile == "harmonic" and self.frequency is None:
            raise ValueError("harmonic profile needs a frequency")


@dataclass(frozen=True)
class SyntheticTruth:
    """Ground truth behind a generated snapshot sequence."""

    eigenvalues: np.ndarray
    modes: np.ndarray
    amplitudes: np.ndarray
    clean_data: np.ndarray


def _harmonics(n: int, count: int = 8) -> list[tuple[np.ndarray, np.ndarray]]:
    """(cos, sin) of 2 pi f t on the grid t = i / n for f = 1 .. count: the
    basis of every smooth profile, evaluated once per synth call."""
    t = np.arange(n) / n
    return [
        (np.cos(2.0 * np.pi * f * t), np.sin(2.0 * np.pi * f * t))
        for f in range(1, count + 1)
    ]


def _smooth_field(harmonics, stream: CounterStream) -> np.ndarray:
    """Random smooth profile: low-frequency Fourier series with 1/f decay."""
    coeffs = stream.normals(2 * len(harmonics))
    field = np.zeros(harmonics[0][0].size)
    for f, (cos, sin) in enumerate(harmonics, start=1):
        a, b = coeffs[2 * f - 2], coeffs[2 * f - 1]
        field += (a * cos + b * sin) / f
    return field


def _mode_profile(n: int, spec: ModeSpec, is_complex: bool, stream: CounterStream, harmonics):
    if spec.profile == "harmonic":
        t = (np.arange(n) + 0.5) / n
        phase = 2.0 * np.pi * spec.frequency * t
        if is_complex:
            return np.cos(phase) + 1j * np.sin(phase)
        return np.sin(phase)
    if is_complex:
        return _smooth_field(harmonics, stream) + 1j * _smooth_field(harmonics, stream)
    return _smooth_field(harmonics, stream)


def _draw_modes(n: int, specs: list[ModeSpec], count: int, seed: int) -> np.ndarray:
    """The n x count unit-norm mode matrix, profiles redrawn from the stream
    until they are not near-collinear."""
    stream = CounterStream(derive_seed(seed, 1))
    harmonics = _harmonics(n) if any(s.profile == "smooth" for s in specs) else None
    for _attempt in range(64):
        columns = []
        for s in specs:
            is_complex = abs(complex(s.eigenvalue).imag) != 0
            phi = _mode_profile(n, s, is_complex, stream, harmonics)
            nrm = np.linalg.norm(phi)
            if nrm == 0:
                continue
            phi = phi / nrm
            columns.append(phi.astype(np.complex128))
            if is_complex:
                columns.append(phi.conjugate())
        if len(columns) == count:
            modes = np.column_stack(columns)
            if np.linalg.svd(modes, compute_uv=False)[-1] >= 1e-6:
                return modes
    raise TooManyModes("could not draw linearly independent mode profiles")


def synth_linear_dynamics(
    n: int, m: int, specs: list[ModeSpec], seed: int
) -> SyntheticTruth:
    """Generate an n x (m+1) real snapshot sequence with a known spectrum.

    Column j is exactly Re(modes @ diag(eigenvalues**j) @ amplitudes), so the
    sequence evolves under a rank-r linear propagator whose eigenpairs are
    the returned truth. Profiles are redrawn (deterministically) if the mode
    matrix comes out near-collinear.
    """
    if not specs:
        raise TooManyModes("need at least one mode spec")
    count = sum(1 if abs(s.eigenvalue.imag) == 0 else 2 for s in specs)
    if count > min(n, m):
        raise TooManyModes(
            f"{count} modes after conjugate completion exceed min(n, m) = {min(n, m)}"
        )

    eigenvalues = []
    amplitudes = []
    for s in specs:
        lam = complex(s.eigenvalue)
        if lam.imag == 0:
            eigenvalues.append(lam)
            amplitudes.append(complex(s.amplitude.real, 0.0))
        else:
            eigenvalues.extend([lam, lam.conjugate()])
            amplitudes.extend([complex(s.amplitude), complex(s.amplitude).conjugate()])
    eigenvalues = np.array(eigenvalues, dtype=np.complex128)
    amplitudes = np.array(amplitudes, dtype=np.complex128)

    # Mode columns have unit norm, so no entry of the n-row product exceeds
    # its weight column's sum of moduli: a finite sum rules out overflow
    # before the n x (m+1) product is formed.
    with np.errstate(over="ignore", invalid="ignore"):
        powers = eigenvalues[:, None] ** np.arange(m + 1)[None, :]
        weights = amplitudes[:, None] * powers
        bound = np.abs(weights).sum(axis=0)
    if not np.isfinite(bound).all():
        raise NonFiniteInput(
            f"the dynamics overflow float64 within {m} steps "
            f"(largest |eigenvalue| {np.abs(eigenvalues).max():.6g})"
        )

    modes = _draw_modes(n, specs, count, seed)
    memguard.note(n * (m + 1) * 8)
    # _real_product returns a fresh row-major array, as the data contract needs
    clean = _real_product(modes, weights)
    return SyntheticTruth(
        eigenvalues=eigenvalues,
        modes=modes,
        amplitudes=amplitudes,
        clean_data=clean,
    )


# Values per job of `add_noise`: even, so every job starts a Box-Muller pair,
# and 32 chunks of the stream kernel, so a job's ufunc calls are large
# enough for the threads to scale.
_NOISE_JOB = 1 << 20


def add_noise(x, snr: float, seed: int, out=None) -> np.ndarray:
    """Additive white Gaussian noise at the given signal-to-noise ratio.

    SNR is the variance ratio var(X)/var(E): noise entries are i.i.d.
    N(0, var(X)/snr) with var(X) the elementwise variance of the data. The
    result is x + sigma * normals(seed, 0, x.size) in row-major order,
    written into `out` (a writable C-contiguous float64 array of x's shape,
    which may be x itself) or, when None, into a new array. The noise is drawn on
    every CPU in the affinity mask (`rng.parallel_map`), in even-aligned
    ranges of the flattened output, with the same bytes for any number of
    workers.
    """
    a = _as_matrix(x)
    if not snr > 0:
        raise ValueError(f"snr must be positive, got {snr}")
    if out is not None and (
        out.shape != a.shape
        or out.dtype != np.float64
        or not (out.flags.c_contiguous and out.flags.writeable)
    ):
        raise ShapeMismatch(
            f"out must be a writable C-contiguous float64 {a.shape} array, "
            f"got {out.dtype} {out.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = np.sqrt(np.var(a) / snr)
    if not np.isfinite(sigma):
        raise NonFiniteInput(f"the noise scale overflows: sqrt(var(X) / snr) = {sigma}")
    if out is None:
        memguard.note(a.size * 8)
        out = np.array(a, order="C")
    elif out is not a:
        out[...] = a
    flat = out.reshape(-1)
    parallel_map(
        lambda lo: add_normals_into(flat[lo : lo + _NOISE_JOB], sigma, seed, lo),
        range(0, flat.size, _NOISE_JOB),
    )
    return out


# --- SMS read/write ---------------------------------------------------------


def write_atomic(path, *chunks) -> None:
    """Write the chunks (bytes, or C-contiguous arrays, written from their
    own buffer) to `path` through `<path>.tmp.<pid>` and a rename, so no
    reader sees a partial file. On any OSError the temp file is removed and
    IoFailure raised."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise IoFailure(f"writing {path}: {exc}") from exc


def _sms_header(rows: int, cols: int) -> bytes:
    """The header `write_sms` writes: version 2, zero-padded to
    SMS_HEADER_BYTES."""
    fields = _HEADER.pack(SMS_MAGIC, SMS_VERSION, rows, cols, SMS_DTYPE_F64)
    return fields.ljust(SMS_HEADER_BYTES, b"\0")


def write_sms(x, path) -> None:
    """Write a matrix to `path` in SMS format (atomic: temp file + rename)."""
    a = np.ascontiguousarray(_as_matrix(x), dtype=np.float64)
    if not np.all(np.isfinite(a)):
        err = _non_finite_error(a)
        raise NonFiniteInput(f"refusing to write non-finite values: {err}", row=err.row)
    # the array's own buffer is written: no bytes copy of the payload
    write_atomic(path, _sms_header(*a.shape), a.astype("<f8", copy=False))


def _read_header(fh, path) -> tuple[int, int, int]:
    """(rows, cols, payload offset) of an SMS file open at offset 0, read
    and validated. The file must hold the payload the header claims, so no
    reader maps or allocates for a size that is not there."""
    raw = fh.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise TruncatedPayload(f"{path}: file shorter than the {_HEADER.size}-byte header")
    magic, version, rows, cols, dtype_code = _HEADER.unpack(raw)
    if magic != SMS_MAGIC:
        raise BadMagic(f"{path}: bad magic {magic!r}")
    if version not in _PAYLOAD_OFFSET:
        raise UnsupportedVersion(f"{path}: version {version}, expected 1 or {SMS_VERSION}")
    if dtype_code != SMS_DTYPE_F64:
        raise UnsupportedVersion(f"{path}: dtype code {dtype_code}, expected {SMS_DTYPE_F64}")
    offset = _PAYLOAD_OFFSET[version]
    size = os.fstat(fh.fileno()).st_size
    expected = offset + rows * cols * 8
    if size < expected:
        raise TruncatedPayload(f"{path}: {size} bytes, expected {expected}")
    return rows, cols, offset


def _read_payload(fh, rows: int, cols: int, what: str) -> np.ndarray:
    """Read rows x cols little-endian float64 values at the handle's position
    straight into one new array (no intermediate bytes object). `what`
    names the file or block in error messages."""
    nbytes = rows * cols * 8
    memguard.note(nbytes)
    data = np.empty((rows, cols), dtype="<f8")
    try:
        got = fh.readinto(data)
    except OSError as exc:
        raise IoFailure(f"reading {what}: {exc}") from exc
    if got < nbytes:
        raise TruncatedPayload(f"{what}: payload is {got} bytes, expected {nbytes}")
    # a no-op on little-endian hosts; a byte-swapping copy elsewhere
    return data.astype(np.float64, copy=False)


def read_sms(path) -> np.ndarray:
    """Read a whole SMS file.

    A version 2 file is mapped read-only and the matrix returned is a
    read-only view of the map (`.copy()` it for a writable array). A
    version 1 payload sits at a misaligned offset, so it is read into a new
    array instead.
    """
    try:
        with open(path, "rb") as fh:
            rows, cols, offset = _read_header(fh, path)
            if offset % 8:  # version 1: the handle stands at its payload
                return _read_payload(fh, rows, cols, str(path))
            memguard.note(rows * cols * 8)
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError as exc:
        raise IoFailure(f"reading {path}: {exc}") from exc
    data = np.frombuffer(mapped, dtype="<f8", count=rows * cols, offset=offset)
    # a no-op on little-endian hosts; a byte-swapping copy elsewhere
    return data.reshape(rows, cols).astype(np.float64, copy=False)


# --- row-block sources ------------------------------------------------------


class ArrayRowBlockSource:
    """Row-block view over an in-memory matrix: its single-block run is the
    in-memory randomized path. Blocks are views in the matrix's own memory
    order, so a Fortran-ordered matrix is not copied."""

    def __init__(self, x, block_count: int):
        self._x = _as_matrix(x)
        self.rows, self.cols = self._x.shape
        self.block_count = block_count
        self.block_ranges = partition_rows(self.rows, block_count)

    def read_block(self, i: int) -> np.ndarray:
        start, count = self.block_ranges[i]
        return self._x[start : start + count]


class SmsRowBlockSource:
    """Sequential row-block reader over an SMS file.

    Each block is one contiguous byte range, readable in any order and
    repeatedly. The handle is single-consumer (one seek/read at a time).
    """

    def __init__(self, path, block_count: int):
        self._path = path
        try:
            with contextlib.ExitStack() as on_error:
                self._fh = on_error.enter_context(open(path, "rb"))
                self.rows, self.cols, self._offset = _read_header(self._fh, path)
                on_error.pop_all()  # header accepted: close() owns the handle
        except OSError as exc:
            raise IoFailure(f"opening {path}: {exc}") from exc
        self.block_count = block_count
        self.block_ranges = partition_rows(self.rows, block_count)

    def read_block(self, i: int) -> np.ndarray:
        start, count = self.block_ranges[i]
        what = f"block {i} of {self._path}"
        try:
            self._fh.seek(self._offset + start * self.cols * 8)
        except OSError as exc:
            raise IoFailure(f"reading {what}: {exc}") from exc
        return _read_payload(self._fh, count, self.cols, what)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def open_row_blocks(path, block_count: int) -> SmsRowBlockSource:
    """Open an SMS file for blocked row streaming."""
    return SmsRowBlockSource(path, block_count)


# --- CSV / complex-matrix exporters ----------------------------------------


def write_complex_csv(path, values) -> None:
    """One `re,im` row per value, 17 significant digits (float64 round-trip)."""
    v = np.asarray(values, dtype=np.complex128).ravel()
    rows = "".join(f"{z.real:.17g},{z.imag:.17g}\n" for z in v)
    write_atomic(path, f"re,im\n{rows}".encode("utf-8"))


def read_complex_csv(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().strip().splitlines()
    except OSError as exc:
        raise IoFailure(f"reading {path}: {exc}") from exc
    if not lines or lines[0].strip() != "re,im":
        raise IoFailure(f"{path}: expected a 're,im' header")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            re_s, im_s = line.split(",")
            out.append(complex(float(re_s), float(im_s)))
        except ValueError as exc:
            raise IoFailure(f"{path}, line {lineno}: malformed value {line!r}") from exc
    return np.array(out, dtype=np.complex128)


def write_complex_matrix(directory, base: str, w) -> None:
    """Complex matrix as two SMS files: <base>_re.sms and <base>_im.sms."""
    w = np.asarray(w, dtype=np.complex128)
    write_sms(w.real, os.path.join(directory, f"{base}_re.sms"))
    write_sms(w.imag, os.path.join(directory, f"{base}_im.sms"))


def read_complex_matrix(directory, base: str) -> np.ndarray:
    re_part = read_sms(os.path.join(directory, f"{base}_re.sms"))
    im_part = read_sms(os.path.join(directory, f"{base}_im.sms"))
    if re_part.shape != im_part.shape:
        raise ShapeMismatch(
            f"{base}_re.sms {re_part.shape} != {base}_im.sms {im_part.shape}"
        )
    return re_part + 1j * im_part
