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
payload is 8-byte aligned, so it is mapped read-only and read as views of
the map; a version 1 payload is read into new arrays.

`SmsRowBlockSource` is the one reader: it parses the header, maps or
copies the payload, and names the file in every error. `read_sms` is its
one-block read. Row-major payloads make a contiguous range of rows a
contiguous range of bytes, which is what the blocks rely on.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import memguard
from .blocked import _CHUNK_ROWS, partition_rows, row_chunks
from .errors import (
    BadMagic,
    IoFailure,
    NonFiniteInput,
    ShapeMismatch,
    TooManyModes,
    TruncatedPayload,
    UnsupportedVersion,
)
from .linalg import _as_matrix, _non_finite_error
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
            # numpy sums, not np.linalg.norm, whose BLAS dot product has bits
            # that depend on its thread count
            nrm = np.sqrt(np.sum(phi.real * phi.real) + np.sum(phi.imag * phi.imag))
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
    # Re(modes @ weights) as one real product over 2 * count terms, summed by
    # einsum in a fixed order: a BLAS GEMM's bits depend on its thread count,
    # so the file would differ between one CPU and several. It forms no
    # temporary of the result's size, and the result is row-major, as the
    # data contract needs. Into `np.empty` it ran at twice the speed of an
    # einsum that allocates its own output.
    clean = np.empty((n, m + 1))
    np.einsum(
        "ik,kj->ij",
        np.hstack([modes.real, -modes.imag]),
        np.vstack([weights.real, weights.imag]),
        out=clean,
    )
    return SyntheticTruth(
        eigenvalues=eigenvalues,
        modes=modes,
        amplitudes=amplitudes,
        clean_data=clean,
    )


# Values per leaf of `_variance`'s summation tree: a leaf's squared
# deviations fill one reused 512 KB buffer and are summed by numpy.
_VARIANCE_LEAF = 1 << 16


def _variance(a: np.ndarray) -> np.float64:
    """np.var(a), bit for bit, without np.var's temporary of a's size.

    np.var sums the squared deviations from mu = sum(a) / N over a's memory
    order with numpy's pairwise summation, which splits a run of n > 128
    values after n // 2 values rounded down to a multiple of 8 and adds the
    two halves' sums. This walks the same tree down to runs of at most
    `_VARIANCE_LEAF` values, has numpy sum each run's squared deviations in
    one reused buffer, and adds the runs' sums in the tree's order.
    """
    mu = np.add.reduce(a, axis=None) / a.size
    # a view of a C- or Fortran-ordered a; any other a is copied, as np.var
    # copies it into its temporary
    flat = a.ravel(order="K")
    buf = np.empty(min(flat.size, _VARIANCE_LEAF))

    def tree_sum(lo, n):
        if n <= _VARIANCE_LEAF:
            d = np.subtract(flat[lo : lo + n], mu, out=buf[:n])
            return np.add.reduce(np.multiply(d, d, out=d))
        half = n // 2 - (n // 2) % 8
        return tree_sum(lo, half) + tree_sum(lo + half, n - half)

    return tree_sum(0, flat.size) / a.size


# Values per job of `add_noise`: even, so every job starts a Box-Muller pair,
# and 32 chunks of the stream kernel, so a job's ufunc calls are large
# enough for the threads to scale.
_NOISE_JOB = 1 << 20


def add_noise(x, snr: float, seed: int, out=None) -> np.ndarray:
    """Additive white Gaussian noise at the given signal-to-noise ratio.

    SNR is the variance ratio var(X)/var(E): noise entries are i.i.d.
    N(0, var(X)/snr) with var(X) the elementwise variance of the data,
    np.var's value streamed without a full-size temporary (`_variance`). The
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
        sigma = np.sqrt(_variance(a) / snr)
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
    """Write the chunks to `path` through `<path>.tmp.<pid>` and a rename,
    so no reader sees a partial file. A chunk is bytes, a C-contiguous
    array (written from its own buffer), or an iterator of those, consumed
    one at a time as it is written. On any exception, an error a chunk
    iterator raises partway or a KeyboardInterrupt included, the temp file
    is removed; an OSError is raised as IoFailure, anything else as
    itself."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                for part in (chunk,) if isinstance(chunk, (bytes, np.ndarray)) else chunk:
                    fh.write(part)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise IoFailure(f"writing {path}: {exc}") from exc
        raise


def _sms_header(rows: int, cols: int) -> bytes:
    """The header `write_sms` writes: version 2, zero-padded to
    SMS_HEADER_BYTES."""
    fields = _HEADER.pack(SMS_MAGIC, SMS_VERSION, rows, cols, SMS_DTYPE_F64)
    return fields.ljust(SMS_HEADER_BYTES, b"\0")


def write_sms(x, path) -> None:
    """Write a matrix to `path` in SMS format (atomic: temp file + rename),
    by `write_sms_rows` in `_CHUNK_ROWS`-row chunks: a C-contiguous float64
    matrix from its own buffer, any other (the real part of a complex
    matrix, a Fortran-ordered one) through one chunk-sized copy at a time,
    so no copy of the whole matrix is made."""
    a = _as_matrix(x)
    n = a.shape[0]
    write_sms_rows(path, a.shape, (a[lo : lo + _CHUNK_ROWS] for lo in range(0, n, _CHUNK_ROWS)))


def write_sms_rows(path, shape, blocks) -> None:
    """Write the rows x cols matrix whose consecutive row blocks, top to
    bottom, the iterable `blocks` yields to `path` in SMS format (atomic:
    temp file + rename), one block at a time, so the matrix need never be
    whole in memory. Each block is scanned a few thousand rows at a time
    before it is written: NaN or Inf raises NonFiniteInput naming its row
    in the matrix, and blocks that do not add up to `shape` raise
    ShapeMismatch; either way nothing is left at `path` or its temp name."""
    rows, cols = shape

    def payload():
        start = 0
        for block in blocks:
            if block.ndim != 2 or block.shape[1] != cols or start + len(block) > rows:
                raise ShapeMismatch(
                    f"block of shape {block.shape} at row {start} of a {rows} x {cols} matrix"
                )
            err = _non_finite_error(block, start)
            if err.row is not None:
                raise NonFiniteInput(f"refusing to write non-finite values: {err}", row=err.row)
            # a view of a little-endian float64 C-contiguous block; else a copy
            yield np.ascontiguousarray(block, dtype="<f8")
            start += len(block)
        if start != rows:
            raise ShapeMismatch(f"blocks hold {start} of the matrix's {rows} rows")

    write_atomic(path, _sms_header(rows, cols), payload())


def _read_header(fh, path) -> tuple[int, int, int]:
    """(rows, cols, payload offset) of an SMS file open at offset 0, read
    and validated. The payload must be nonempty and the file must hold it,
    so nothing is mapped or allocated for a size that is not there."""
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
    if rows == 0 or cols == 0:
        raise ShapeMismatch(f"{path}: empty {rows} x {cols} payload")
    offset = _PAYLOAD_OFFSET[version]
    size = os.fstat(fh.fileno()).st_size
    expected = offset + rows * cols * 8
    if size < expected:
        raise TruncatedPayload(f"{path}: {size} bytes, expected {expected}")
    return rows, cols, offset


def read_sms(path) -> np.ndarray:
    """Read a whole SMS file: the one block of `SmsRowBlockSource(path, 1)`.

    A version 2 file is mapped read-only and the matrix returned is a
    read-only view of the map (`.copy()` it for a writable array). A
    version 1 payload sits at a misaligned offset, so it is read into a new
    array instead. A mapped file must not be truncated in place while the
    view is in use: touching a page past the new end raises SIGBUS.
    """
    with SmsRowBlockSource(path, 1) as source:
        return source.read_block(0)


# --- row-block sources ------------------------------------------------------


# MADV_DONTNEED drops a shared file map's pages from the process; where the
# platform lacks it, a mapped block would stay resident, so blocks are
# copied unless there is only one
_CAN_RELEASE = hasattr(mmap, "MADV_DONTNEED")


class SmsRowBlockSource:
    """Row-block reader over an SMS file, and the library's one SMS reader.

    Each block is one contiguous byte range, readable in any order and
    repeatedly. The source holds the block read last: reading it again
    returns the same array and reads nothing, and reading another block
    first releases it (`release_block`), so the process holds one block at
    a time. A version 2 file is mapped once, read-only and shared, and a
    block is a read-only view of the map whose pages the release drops;
    `release_rows` drops those of any rows, which the range finder does
    chunk by chunk (`blocked.row_chunks`). A released view stays valid and
    reads its pages back from the file if touched again. A version 1
    payload is misaligned, so there (and, with more than one block, on a
    platform without MADV_DONTNEED) each block is read into a new array
    through the one file handle (one seek/read at a time).

    A mapped file must not be truncated in place while the source or a view
    of it is in use: touching a page past the new end raises SIGBUS.
    """

    def __init__(self, path, block_count: int):
        self._path = path
        self._map = self._payload = None  # the map and its payload view
        self._held = self._block = None  # the block read last, and its array
        try:
            with contextlib.ExitStack() as on_error:
                self._fh = on_error.enter_context(open(path, "rb"))
                self.rows, self.cols, self._offset = _read_header(self._fh, path)
                self.block_ranges = partition_rows(self.rows, block_count)
                if self._offset % 8 == 0 and (_CAN_RELEASE or block_count == 1):
                    # shared (ACCESS_READ): MADV_DONTNEED zero-fills the
                    # pages of a private map, where a shared one reads them
                    # back from the file
                    self._map = mmap.mmap(self._fh.fileno(), 0, access=mmap.ACCESS_READ)
                    self._payload = np.frombuffer(
                        self._map, dtype="<f8", count=self.rows * self.cols,
                        offset=self._offset,
                    ).reshape(self.rows, self.cols)
                on_error.pop_all()  # accepted and mapped: close() owns the handle
        except OSError as exc:
            raise IoFailure(f"opening {path}: {exc}") from exc
        self.shape = (self.rows, self.cols)
        self.block_count = block_count
        self.passes = 0  # `blocked.row_chunks` walks
        self._releases_rows = self._payload is not None and _CAN_RELEASE

    def read_block(self, i: int) -> np.ndarray:
        start, count = self.block_ranges[i]
        # the memory cap is charged what a pass holds: a mapped view whose
        # rows `row_chunks` releases chunk by chunk holds one chunk of pages,
        # a copied block all of it
        resident = min(_CHUNK_ROWS, count) if self._releases_rows else count
        memguard.note(resident * self.cols * 8)
        if i != self._held:
            self.release_block()
            self._block = self._read(i, start, count)
            self._held = i
        return self._block

    def _read(self, i: int, start: int, count: int) -> np.ndarray:
        if self._payload is not None:
            block = self._payload[start : start + count]
        else:
            # straight into one new array, with no intermediate bytes object
            what = f"block {i} of {self._path}"
            block = np.empty((count, self.cols), dtype="<f8")
            try:
                self._fh.seek(self._offset + start * self.cols * 8)
                got = self._fh.readinto(block)
            except OSError as exc:
                raise IoFailure(f"reading {what}: {exc}") from exc
            if got < block.nbytes:
                raise TruncatedPayload(f"{what}: payload is {got} bytes, expected {block.nbytes}")
        # a no-op on little-endian hosts; a byte-swapping copy elsewhere
        return block.astype(np.float64, copy=False)

    def release_block(self) -> None:
        """Let go of the block read last and drop its pages (`release_rows`).
        A copied block is only dereferenced."""
        if self._held is None:
            return
        start, count = self.block_ranges[self._held]
        self._held = self._block = None
        self.release_rows(start, count)

    def release_rows(self, start: int, count: int) -> None:
        """Drop the resident pages of rows start..start + count of a mapped
        file: the page-aligned inside of their byte range, so the pages they
        share with their neighbours stay. Views of the rows stay valid and
        read their pages back from the file if touched again. A no-op where
        blocks are copied."""
        if not self._releases_rows:
            return
        row_bytes = self.cols * 8
        page = mmap.PAGESIZE
        lo = -(-(self._offset + start * row_bytes) // page) * page
        hi = (self._offset + (start + count) * row_bytes) // page * page
        if hi > lo:
            self._map.madvise(mmap.MADV_DONTNEED, lo, hi - lo)

    def close(self) -> None:
        """Release the last block and close the file. The map is dropped,
        not closed, so views a caller still holds stay valid; it is
        unmapped when the last of them goes."""
        self.release_block()
        self._map = self._payload = None
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
    """The complex matrix `write_complex_matrix` wrote, its parts copied
    into one complex128 array chunk by chunk (`row_chunks`), so a -0.0 part
    keeps its sign and of each mapped file one chunk's pages are held."""
    re_path, im_path = (os.path.join(directory, f"{base}_{p}.sms") for p in ("re", "im"))
    with open_row_blocks(re_path, 1) as re_part, open_row_blocks(im_path, 1) as im_part:
        if re_part.shape != im_part.shape:
            raise ShapeMismatch(
                f"{base}_re.sms {re_part.shape} != {base}_im.sms {im_part.shape}"
            )
        out = np.empty(re_part.shape, dtype=np.complex128)
        for target, source in ((out.real, re_part), (out.imag, im_part)):
            for start, rows in row_chunks(source):
                target[start : start + rows.shape[0]] = rows
    return out
