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

import bisect
import contextlib
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import memguard
from .blocked import _as_matrix, _non_finite_error, partition_rows, row_chunks, row_spans
from .errors import (
    BadMagic,
    IoFailure,
    NonFiniteInput,
    ShapeMismatch,
    TooManyModes,
    TruncatedPayload,
    UnsupportedVersion,
)
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
    clean_data: np.ndarray | None  # None where it went straight to a file


def _harmonics(n: int, count: int = 8) -> list[tuple[np.ndarray, np.ndarray]]:
    """(cos, sin) of 2 pi f t on the grid t = i / n for f = 1 .. count: the
    basis of every smooth profile, evaluated once per synth call."""
    t = np.arange(n) / n
    return [
        (np.cos(2.0 * np.pi * f * t), np.sin(2.0 * np.pi * f * t))
        for f in range(1, count + 1)
    ]


def _smooth_field(harmonics, stream: CounterStream, out: np.ndarray, terms: np.ndarray):
    """Random smooth profile: low-frequency Fourier series with 1/f decay,
    summed term by term into `out` through the 2 x n scratch `terms`."""
    coeffs = stream.normals(2 * len(harmonics))
    out[...] = 0.0
    cos_part, sin_part = terms
    for f, (cos, sin) in enumerate(harmonics, start=1):
        # (a * cos + b * sin) / f, one operation at a time
        np.multiply(coeffs[2 * f - 2], cos, out=cos_part)
        np.multiply(coeffs[2 * f - 1], sin, out=sin_part)
        cos_part += sin_part
        cos_part /= f
        out += cos_part
    return out


def _mode_column(phi, spec: ModeSpec, is_complex: bool, stream: CounterStream, harmonics,
                 scratch) -> bool:
    """Write the unit-norm profile of `spec` into the contiguous complex
    column `phi` through the 4 x n scratch, with the bits of forming it as
    a new array, dividing it by its norm and converting it to complex.
    False, with `phi` undefined, where the profile's norm is 0."""
    n = phi.size
    if spec.profile == "harmonic":
        phase = 2.0 * np.pi * spec.frequency * ((np.arange(n) + 0.5) / n)
        re, im = (np.cos(phase), np.sin(phase)) if is_complex else (np.sin(phase), None)
    else:
        re = _smooth_field(harmonics, stream, scratch[0], scratch[2:])
        im = _smooth_field(harmonics, stream, scratch[1], scratch[2:]) if is_complex else None
    square = scratch[2]
    if im is None:
        # numpy sums, not np.linalg.norm, whose BLAS dot product has bits
        # that depend on its thread count
        nrm = np.sqrt(np.sum(np.multiply(re, re, out=square)))
        if nrm == 0:
            return False
        np.divide(re, nrm, out=phi.real)  # a real division, then + 0j
        phi.imag[...] = 0.0
        return True
    np.multiply(im, 1j, out=phi)  # re + 1j * im
    np.add(re, phi, out=phi)
    nrm = np.sqrt(np.sum(np.multiply(phi.real, phi.real, out=square))
                  + np.sum(np.multiply(phi.imag, phi.imag, out=square)))
    if nrm == 0:
        return False
    phi /= nrm  # numpy's complex division, as of the array by its norm
    return True


def _mode_columns(modes: np.ndarray, specs: list[ModeSpec], stream: CounterStream) -> int:
    """Draw the unit-norm profile of each spec, and its conjugate for a
    non-real eigenvalue, into the next columns of `modes`; the number of
    columns written, fewer than modes has where a profile's norm was 0.
    The harmonics and the scratch go when it returns."""
    n = modes.shape[0]
    harmonics = _harmonics(n) if any(s.profile == "smooth" for s in specs) else None
    scratch = np.empty((4, n))
    j = 0
    for s in specs:
        is_complex = abs(complex(s.eigenvalue).imag) != 0
        if _mode_column(modes[:, j], s, is_complex, stream, harmonics, scratch):
            if is_complex:
                np.conjugate(modes[:, j], out=modes[:, j + 1])
            j += 2 if is_complex else 1
    return j


def _draw_modes(n: int, specs: list[ModeSpec], count: int, seed: int) -> np.ndarray:
    """The n x count unit-norm mode matrix, profiles redrawn from the stream
    until they are not near-collinear. Its columns are contiguous (it is
    Fortran-ordered), so each is formed in place, and the SVD that checks
    them runs once the harmonics are gone."""
    stream = CounterStream(derive_seed(seed, 1))
    modes = np.empty((count, n), dtype=np.complex128).T
    for _attempt in range(64):
        if (_mode_columns(modes, specs, stream) == count
                and np.linalg.svd(modes, compute_uv=False)[-1] >= 1e-6):
            return modes
    raise TooManyModes("could not draw linearly independent mode profiles")


def _dynamics(n: int, m: int, specs: list[ModeSpec], seed: int):
    """(eigenvalues, amplitudes, modes, weights) of the synthetic sequence:
    row i of its data is `_dynamics_rows` of modes[i] and the 2r x (m + 1)
    real weights [Re W; Im W], W = diag(amplitudes) eigenvalues**j."""
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
    return eigenvalues, amplitudes, modes, np.vstack([weights.real, weights.imag])


def _dynamics_rows(modes: np.ndarray, weights: np.ndarray, rows: slice, out: np.ndarray) -> None:
    """out[:] = rows `rows` of the data, Re(modes @ W), as one real product
    [Re modes, -Im modes] @ [Re W; Im W] over 2r terms, summed by einsum in
    a fixed order: a BLAS GEMM's bits depend on its thread count, so the
    file would differ between one CPU and several. Each row's sum is the
    same in any chunk of rows, so the chunks of any walk give the bytes of
    the whole product. Into a given output it ran at twice the speed of an
    einsum that allocates its own."""
    part = modes[rows]
    np.einsum("ik,kj->ij", np.hstack([part.real, -part.imag]), weights, out=out)


def synth_linear_dynamics(
    n: int, m: int, specs: list[ModeSpec], seed: int
) -> SyntheticTruth:
    """Generate an n x (m+1) real snapshot sequence with a known spectrum.

    Column j is exactly Re(modes @ diag(eigenvalues**j) @ amplitudes), so the
    sequence evolves under a rank-r linear propagator whose eigenpairs are
    the returned truth. Profiles are redrawn (deterministically) if the mode
    matrix comes out near-collinear. The data are formed a row chunk
    (`blocked.row_spans`) per `rng.parallel_map` job into the row-major
    result, as `write_synth_sms` forms them in its file.
    """
    eigenvalues, amplitudes, modes, weights = _dynamics(n, m, specs, seed)
    memguard.note(n * (m + 1) * 8)
    clean = np.empty((n, m + 1))
    parallel_map(
        lambda rows: _dynamics_rows(modes, weights, rows, clean[rows]), row_spans(n, (m + 1) * 8)
    )
    return SyntheticTruth(
        eigenvalues=eigenvalues,
        modes=modes,
        amplitudes=amplitudes,
        clean_data=clean,
    )


# Values per leaf of the summation trees of `_TreeSum`, which numpy sums
# whole: a leaf of squared deviations is formed in one 512 KB buffer. At
# least 128, numpy's own unsplit run.
_VARIANCE_LEAF = 1 << 16


def _split(n: int) -> int:
    """Where numpy's pairwise summation splits a run of n values: after
    n // 2 values rounded down to a multiple of 8."""
    return n // 2 - (n // 2) % 8


class _TreeSum:
    """numpy's pairwise sum of `leaf(run)` over the 1-D `flat`, summed as
    walks over `flat` pass its runs.

    numpy sums an array along a tree that splits each run of more than 128
    values at `_split`. The runs of at most `_VARIANCE_LEAF` values that
    this tree ends in are the leaves: `within(lo, hi)` sums, by `leaf`,
    each leaf that lies wholly inside values lo..hi, and `total` sums the
    rest and adds the leaves' sums in the tree's order. With np.add.reduce
    as the leaf that is the bits of np.add.reduce(flat). Calls on disjoint
    ranges may run on several threads at once. Overflow is not warned of:
    the caller checks the total.
    """

    def __init__(self, flat: np.ndarray, leaf):
        self._flat, self._leaf = flat, leaf
        self._bounds = [0]  # leaf i is values bounds[i]..bounds[i + 1]

        def cut(lo, n):
            if n <= _VARIANCE_LEAF:
                self._bounds.append(lo + n)
            else:
                cut(lo, _split(n))
                cut(lo + _split(n), n - _split(n))

        cut(0, flat.size)
        self._sums = [None] * (len(self._bounds) - 1)

    def within(self, lo: int, hi: int) -> None:
        bounds = self._bounds
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(bisect.bisect_left(bounds, lo), len(self._sums)):
                if bounds[i + 1] > hi:
                    break
                if self._sums[i] is None:
                    self._sums[i] = self._leaf(self._flat[bounds[i] : bounds[i + 1]])

    def total(self) -> np.float64:
        self.within(0, self._flat.size)
        sums = iter(self._sums)

        def add(n):
            if n <= _VARIANCE_LEAF:
                return next(sums)
            return add(_split(n)) + add(n - _split(n))

        with np.errstate(over="ignore", invalid="ignore"):
            return add(self._flat.size)


def _squared_deviations(flat: np.ndarray, mu) -> _TreeSum:
    """The `_TreeSum` of (flat - mu)**2, each leaf's deviations formed in a
    leaf-sized buffer of the thread that sums it."""

    def leaf(run):
        d = np.subtract(run, mu)
        return np.add.reduce(np.multiply(d, d, out=d))

    return _TreeSum(flat, leaf)


def _variance(a: np.ndarray) -> np.float64:
    """np.var(a), bit for bit, without np.var's temporary of a's size.

    np.var takes the mean mu = sum(a) / N and then sums the squared
    deviations from mu over a's memory order, both by numpy's pairwise
    summation; here both sums are `_TreeSum`s over that order.
    """
    # a view of a C- or Fortran-ordered a; any other a is copied, as np.var
    # copies it into its temporary
    flat = a.ravel(order="K")
    mu = _TreeSum(flat, np.add.reduce).total() / flat.size
    return _squared_deviations(flat, mu).total() / flat.size


def _noise_scale(variance, snr: float):
    """sqrt(variance / snr), the noise's standard deviation; NonFiniteInput
    where it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = np.sqrt(variance / snr)
    if not np.isfinite(sigma):
        raise NonFiniteInput(f"the noise scale overflows: sqrt(var(X) / snr) = {sigma}")
    return sigma


def _noise_rows(out: np.ndarray, rows: slice, sigma, seed: int) -> None:
    """Add sigma times the draws of the Gaussian stream `seed` that fall on
    rows `rows` of the C-contiguous `out`, draw i being out's flat value i."""
    add_normals_into(out[rows].reshape(-1), sigma, seed, rows.start * out.shape[1])


def add_noise(x, snr: float, seed: int, out=None) -> np.ndarray:
    """Additive white Gaussian noise at the given signal-to-noise ratio.

    SNR is the variance ratio var(X)/var(E): noise entries are i.i.d.
    N(0, var(X)/snr) with var(X) the elementwise variance of the data,
    np.var's value streamed without a full-size temporary (`_variance`). The
    result is x + sigma * normals(seed, 0, x.size) in row-major order,
    written into `out` (a writable C-contiguous float64 array of x's shape,
    which may be x itself) or, when None, into a new array. The noise is drawn on
    every CPU in the affinity mask (`rng.parallel_map`), a row chunk of the
    output (`blocked.row_spans`) at a time, with the same bytes for any
    number of workers.
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
    sigma = _noise_scale(_variance(a), snr)
    if out is None:
        memguard.note(a.size * 8)
        out = np.array(a, order="C")
    elif out is not a:
        out[...] = a
    parallel_map(
        lambda rows: _noise_rows(out, rows, sigma, seed), row_spans(out.shape[0], out.shape[1] * 8)
    )
    return out


# --- SMS read/write ---------------------------------------------------------


@contextlib.contextmanager
def _replacing(path):
    """Yield the temp name `<path>.tmp.<pid>` to write `path`'s new content
    to, and rename it over `path` when the block ends, so no reader sees a
    partial file. On any exception, a KeyboardInterrupt included, the temp
    file is removed; an OSError is raised as IoFailure naming `path`,
    anything else as itself."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise IoFailure(f"writing {path}: {exc}") from exc
        raise


def write_atomic(path, *chunks) -> None:
    """Write the chunks to `path` through its temp file and a rename
    (`_replacing`). A chunk is bytes, a C-contiguous array (written from
    its own buffer), or an iterator of those, consumed one at a time, each
    dropped once written, before the next is formed; an error an iterator
    raises partway leaves nothing behind."""
    with _replacing(path) as tmp, open(tmp, "wb") as fh:
        for chunk in chunks:
            for part in (chunk,) if isinstance(chunk, (bytes, np.ndarray)) else chunk:
                fh.write(part)
                del part


def _sms_header(rows: int, cols: int) -> bytes:
    """The header `write_sms` writes: version 2, zero-padded to
    SMS_HEADER_BYTES."""
    fields = _HEADER.pack(SMS_MAGIC, SMS_VERSION, rows, cols, SMS_DTYPE_F64)
    return fields.ljust(SMS_HEADER_BYTES, b"\0")


def write_sms(x, path) -> None:
    """Write a matrix to `path` in SMS format (atomic: temp file + rename),
    by `write_sms_rows` in chunks (`blocked.row_spans`): a C-contiguous
    float64 matrix from its own buffer, any other (the real part of a
    complex matrix, a Fortran-ordered one) through one chunk-sized copy at
    a time, so no copy of the whole matrix is made."""
    a = _as_matrix(x)
    write_sms_rows(path, a.shape, (a[rows] for rows in row_spans(a.shape[0], a.shape[1] * 8)))


def _require_finite_rows(block: np.ndarray, start: int) -> None:
    """The writers' check of what they write: NonFiniteInput naming the
    first NaN or Inf of `block` by its row, counted from `start`."""
    err = _non_finite_error(block, start)
    if err.row is not None:
        raise NonFiniteInput(f"refusing to write non-finite values: {err}", row=err.row)


def write_sms_rows(path, shape, blocks) -> None:
    """Write the rows x cols matrix whose consecutive row blocks, top to
    bottom, the iterable `blocks` yields to `path` in SMS format (atomic:
    temp file + rename), one block at a time, each dropped once it is
    written, so the matrix need never be whole in memory and no block is
    held while `blocks` forms the next. Each block is scanned a chunk at a
    time before it is written: NaN or Inf raises NonFiniteInput naming its
    row in the matrix, and blocks that do not add up to `shape` raise
    ShapeMismatch; either way nothing is left at `path` or its temp name."""
    rows, cols = shape

    def payload():
        start = 0
        for block in blocks:
            if block.ndim != 2 or block.shape[1] != cols or start + len(block) > rows:
                raise ShapeMismatch(
                    f"block of shape {block.shape} at row {start} of a {rows} x {cols} matrix"
                )
            _require_finite_rows(block, start)
            start += len(block)
            # a view of a little-endian float64 C-contiguous block; else a copy
            yield np.ascontiguousarray(block, dtype="<f8")
            del block
        if start != rows:
            raise ShapeMismatch(f"blocks hold {start} of the matrix's {rows} rows")

    write_atomic(path, _sms_header(rows, cols), payload())


# MADV_DONTNEED drops a shared file map's pages from the process; where the
# platform lacks it, a mapped block would stay resident, so blocks are
# copied unless there is only one
_CAN_RELEASE = hasattr(mmap, "MADV_DONTNEED")


def _drop_pages(pages: mmap.mmap, lo: int, hi: int) -> None:
    """Drop the resident pages of the shared file map `pages` that lie
    wholly inside bytes lo..hi, so the pages they share with their
    neighbours stay. The file keeps what was written to them, and a view
    reads them back from it if touched again. A no-op where the platform
    lacks MADV_DONTNEED."""
    page = mmap.PAGESIZE
    lo, hi = -(-lo // page) * page, hi // page * page
    if _CAN_RELEASE and hi > lo:
        pages.madvise(mmap.MADV_DONTNEED, lo, hi - lo)


@contextlib.contextmanager
def _mapped_sms(path, rows: int, cols: int):
    """Yield (payload, release) for a new rows x cols SMS file at `path`:
    `payload` is a writable C-contiguous float64 view of a shared map of the
    file's temp name (`_replacing`), and `release(span)` drops the resident
    pages of payload rows `span` (`_drop_pages`), which keep what was
    written to them. The file's blocks are reserved before it is mapped
    (`os.posix_fallocate`), so a full disk is IoFailure here, not a SIGBUS
    at a page written later; where the platform has no posix_fallocate the
    file is only extended to its size. The file is renamed into place when
    the block ends and removed on any exception. The map is dropped, not
    closed, so views still held stay valid."""
    size = SMS_HEADER_BYTES + rows * cols * 8
    with _replacing(path) as tmp, open(tmp, "w+b") as fh:
        if hasattr(os, "posix_fallocate"):
            os.posix_fallocate(fh.fileno(), 0, size)
        else:
            os.ftruncate(fh.fileno(), size)
        pages = mmap.mmap(fh.fileno(), size)  # shared, readable and writable
        pages[:SMS_HEADER_BYTES] = _sms_header(rows, cols)
        payload = np.frombuffer(
            pages, dtype="<f8", count=rows * cols, offset=SMS_HEADER_BYTES
        ).reshape(rows, cols)

        def release(span: slice) -> None:
            start = SMS_HEADER_BYTES + span.start * cols * 8
            _drop_pages(pages, start, start + (span.stop - span.start) * cols * 8)

        yield payload, release


def write_synth_sms(
    path, n: int, m: int, specs: list[ModeSpec], seed: int, snr: float | None = None,
    noise_seed: int = 0,
) -> SyntheticTruth:
    """Write `synth_linear_dynamics(n, m, specs, seed)`'s data, with, given
    an snr, `add_noise(data, snr, noise_seed)`'s noise, to `path` in SMS
    format: the bytes `write_sms` writes of that matrix, formed in place in
    the file (`_mapped_sms`) one row chunk (`blocked.row_spans`) at a time,
    so no n x (m + 1) array and no copy of one for write() exist. Returns
    the truth, with no clean_data.

    Noisy data take three walks over the chunks, each a `rng.parallel_map`
    of one job per chunk that drops the chunk's pages once walked: the
    dynamics (`_dynamics_rows`), summing the leaves of the mean's
    `_TreeSum` that the chunk holds; the squared deviations from the mean,
    by the same tree; and the noise (`_noise_rows`) with the writers'
    finiteness check. The leaves that straddle two chunks are summed after
    their walk. Noise-free data take one walk, the
    dynamics and the check. A failure leaves nothing at `path` or its temp
    name, and an existing file at `path` as it was.
    """
    if snr is not None and not snr > 0:
        raise ValueError(f"snr must be positive, got {snr}")
    eigenvalues, amplitudes, modes, weights = _dynamics(n, m, specs, seed)
    cols = m + 1
    spans = row_spans(n, cols * 8)
    with _mapped_sms(path, n, cols) as (x, release):
        flat = x.reshape(-1)
        mean = _TreeSum(flat, np.add.reduce)

        def total(tree):
            # the leaves that straddle two chunks, a pair of chunks at a
            # time, their pages dropped again: read after the walk, a
            # straddler maps whole 2 MiB folios of the page cache
            for a, b in zip(spans, spans[1:]):
                tree.within(a.start * cols, b.stop * cols)
                release(slice(a.start, b.stop))
            return tree.total()

        def dynamics(rows):
            _dynamics_rows(modes, weights, rows, x[rows])
            if snr is None:
                _require_finite_rows(x[rows], rows.start)
            else:
                mean.within(rows.start * cols, rows.stop * cols)
            release(rows)

        parallel_map(dynamics, spans)
        if snr is not None:
            deviations = _squared_deviations(flat, total(mean) / flat.size)

            def deviate(rows):
                deviations.within(rows.start * cols, rows.stop * cols)
                release(rows)

            parallel_map(deviate, spans)
            sigma = _noise_scale(total(deviations) / flat.size, snr)

            def noise(rows):
                _noise_rows(x, rows, sigma, noise_seed)
                _require_finite_rows(x[rows], rows.start)
                release(rows)

            parallel_map(noise, spans)
    return SyntheticTruth(eigenvalues, modes, amplitudes, clean_data=None)


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
        self.sq_norm = 0.0  # ||X||_F^2, summed by the first walk
        self._releases_rows = self._payload is not None and _CAN_RELEASE

    def read_block(self, i: int) -> np.ndarray:
        start, count = self.block_ranges[i]
        # the memory cap is charged what a pass holds: a mapped view whose
        # rows `row_chunks` releases chunk by chunk holds one chunk of pages,
        # a copied block all of it
        resident = row_spans(count, self.cols * 8)[0].stop if self._releases_rows else count
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
        if self._releases_rows:
            row_bytes = self.cols * 8
            lo = self._offset + start * row_bytes
            _drop_pages(self._map, lo, lo + count * row_bytes)

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
