"""Command-line front end.

Subcommands: synth (generate data), decompose (run one method), bench
(compare all three), qb (range finder only), reconstruct (replay modes).
Reports are JSON, series are CSV; every output is written atomically.
Exit codes: 0 success, 1 runtime failure (error class named on stderr),
2 usage error, which includes every numeric flag out of its range.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from functools import partial

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np

from . import memguard
from .blocked import _CHUNK_ROWS, row_chunks
from .datasets import (
    ModeSpec,
    add_noise,
    open_row_blocks,
    read_complex_csv,
    read_complex_matrix,
    read_sms,  # no caller: perfbench/traced.py's datasets.read_sms site
    synth_linear_dynamics,
    write_atomic,
    write_complex_csv,
    write_complex_matrix,
    write_sms,
    write_sms_rows,
)
from .dmd import (
    DmdConfig,
    DmdResult,
    eigen_match_error,
    reconstruct,
    run_dmd,
)
from .errors import IoFailure, RdmdError
from .linalg import _require_finite, frobenius_sq, singular_values_of_rows
from .memguard import stage
from .rng import derive_seed
from .sketch import SketchConfig, blocked_randomized_qb, expected_error_bound

_METHOD_FLAGS = {
    "dmd": "deterministic_projected",
    "rdmd": "randomized",
    "cdmd": "compressed",
}
_SAMPLING_FLAGS = {"uniform": "uniform_rows", "gaussian": "gaussian"}
# Smallest relative reconstruction error taken from the sketch identity. Its
# difference ||X||^2 - ||B||^2 cancels as the error shrinks: the identity
# departs from the streamed pass by about 1.3e-15 / error^2 relative, so
# 1e-3 keeps the two within 1e-8 (1e-4 would not).
_IDENTITY_MIN_ERROR = 1e-3


def _write_json(path, payload) -> None:
    write_atomic(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def _complex_pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values).ravel()]


def _parse_modes(text: str) -> list[ModeSpec]:
    """Mode list syntax: comma-separated EIGENVALUE[:AMPLITUDE], each a
    Python complex literal, e.g. '0.9,0.95+0.2j:1.5'. Conjugate partners of
    non-real eigenvalues are implied."""
    specs = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) > 2:
            raise argparse.ArgumentTypeError(f"bad mode entry {item!r}")
        try:
            eig = complex(parts[0])
            amp = complex(parts[1]) if len(parts) == 2 else 1.0 + 0.0j
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad mode entry {item!r}: {exc}")
        specs.append(ModeSpec(eigenvalue=eig, amplitude=amp))
    if not specs:
        raise argparse.ArgumentTypeError("empty mode list")
    return specs


def _ranged(kind, low, strict=False):
    """argparse type: a `kind` value >= low, or > low when strict. Any other
    value is a usage error that names the flag."""

    def parse(text):
        value = kind(text)  # a ValueError reads "invalid int value: 'text'"
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(f"must be {'>' if strict else '>='} {low}, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _relative_residual(chunks, approximate) -> float:
    """Relative Frobenius error ||X - A|| / ||X|| over the (start, rows) row
    chunks of the data X that `blocked.row_chunks` yields, where
    approximate(start, rows) returns a fresh array holding those rows of A.
    One chunk's approximation is resident beside the data, and each chunk
    is dropped before the next is read."""
    num = den = 0.0
    for start, chunk in chunks:
        residual = approximate(start, chunk)
        np.subtract(chunk, residual, out=residual)  # in place: no second buffer
        num += float(np.vdot(residual, residual))
        den += float(np.vdot(chunk, chunk))
        del residual, chunk  # before the next chunk (or block) is formed
    return float(np.sqrt(num) / np.sqrt(den)) if den > 0 else 0.0


def _identity_or_streamed(data_sq_norm, residual_sq, misfit_sq, chunks, approximate):
    """Relative error sqrt((residual_sq + misfit_sq) / data_sq_norm) of an
    approximation Q C of X from the sketch identity, with the sketch
    residual and the misfit it splits into, each relative to ||X||_F.

    The identity is not trusted where the residual ||X||^2 - ||B||^2
    cancelled below zero or the error is below _IDENTITY_MIN_ERROR; the
    streamed pass `_relative_residual(chunks, approximate)` takes its place
    there, with no split to report (None, None).
    """
    if residual_sq >= 0 and data_sq_norm > 0:
        parts = residual_sq + misfit_sq, residual_sq, misfit_sq
        error, residual, misfit = (math.sqrt(sq / data_sq_norm) for sq in parts)
        if error >= _IDENTITY_MIN_ERROR:
            return error, residual, misfit
    return _relative_residual(chunks, approximate), None, None


def _approximate(result: DmdResult, start: int, block) -> np.ndarray:
    """Rows start.. of the DMD reconstruction of `result`, for a chunk of
    rows of the data."""
    part = replace(result, modes=result.modes[start : start + block.shape[0]])
    return reconstruct(part, block.shape[1])


def _reconstruction_error(result: DmdResult, chunks) -> tuple[float, float | None, float | None]:
    """Relative error of the DMD reconstruction of `result` against the data
    X, with the sketch residual and the dynamics misfit it splits into.

    The error comes from the result's `SketchFit` in its l-dimensional
    coordinates, and the (start, rows) row chunks of X in `chunks` are
    read only where `_identity_or_streamed` falls back to the streamed pass.
    """
    fit = result.sketch
    misfit_sq = frobenius_sq(
        fit.data - reconstruct(replace(result, modes=fit.modes), fit.data.shape[1])
    )
    return _identity_or_streamed(
        fit.data_sq_norm, fit.data_sq_norm - frobenius_sq(fit.data), misfit_sq,
        chunks, partial(_approximate, result),
    )


def _peak_rss_bytes() -> int | None:
    """The process's peak resident set so far (`ru_maxrss`, which Linux
    gives in KiB and macOS in bytes), or None where the platform has no
    `resource` module."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def _load_truth(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return np.array([complex(re, im) for re, im in data["eigenvalues"]])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise IoFailure(f"reading truth file {path}: {exc}") from exc


def _run(decompose, chunks, truth, timings):
    """One decomposition as `decompose` and `bench` run it: `decompose()`,
    then its reconstruction error over the row chunks of the data (see
    `_reconstruction_error`) and, given truth eigenvalues, its eigen-match
    error. Returns (result, errors, match error or None)."""
    with stage(timings, "decompose"):
        result = decompose()
    with stage(timings, "diagnostics"):
        errors = _reconstruction_error(result, chunks)
        match = None if truth is None else float(eigen_match_error(truth, result.eigenvalues))
    return result, errors, match


def _mean_std(values) -> dict:
    """Mean and standard deviation of `values`, None for both if empty."""
    if not values:
        return {"mean": None, "std": None}
    return {"mean": float(np.mean(values)), "std": float(np.std(values))}


# --- subcommands -------------------------------------------------------------


def _cmd_synth(args) -> int:
    truth = synth_linear_dynamics(args.rows, args.snapshots - 1, args.modes, args.seed)
    data = truth.clean_data
    if args.snr is not None:
        # the clean matrix is not read again: the noise goes into it in place
        data = add_noise(data, args.snr, derive_seed(args.seed, 2**32), out=data)
    write_sms(data, args.out)
    if args.truth:
        _write_json(
            args.truth,
            {
                "eigenvalues": _complex_pairs(truth.eigenvalues),
                "amplitudes": _complex_pairs(truth.amplitudes),
                "rows": args.rows,
                "snapshots": args.snapshots,
                "seed": args.seed,
                "snr": args.snr,
            },
        )
    print(f"wrote {args.rows}x{args.snapshots} snapshot matrix to {args.out}")
    return 0


def _build_config(args, method: str) -> DmdConfig:
    """The run configuration of `decompose` and `bench`."""
    return DmdConfig(
        target_rank=args.rank,
        method=_METHOD_FLAGS[method],
        oversampling=args.oversample,
        power_iters=args.power_iters,
        seed=args.seed,
        compress_dim=args.compress_dim,
        sampling=_SAMPLING_FLAGS[args.sampling],
    )


def _cmd_decompose(args) -> int:
    cfg = _build_config(args, args.method)
    truth = _load_truth(args.truth) if args.truth else None

    timings = {}
    with memguard.session(cap_bytes=args.memory_cap) as guard:
        with stage(timings, "load"):
            source = open_row_blocks(args.input, args.blocks)
        with source:
            # lazy: the blocks are read again only by a streamed pass
            chunks = row_chunks(source)
            result, errors, match_error = _run(
                lambda: run_dmd(source, cfg), chunks, truth, timings
            )
        recon_error, sketch_residual, dynamics_misfit = errors

        os.makedirs(args.out, exist_ok=True)  # only now: a failed run leaves none
        with stage(timings, "write"):
            write_complex_csv(os.path.join(args.out, "eigenvalues.csv"), result.eigenvalues)
            write_complex_csv(os.path.join(args.out, "amplitudes.csv"), result.amplitudes)
            write_complex_matrix(args.out, "modes", result.modes)

        report = {
            "method": args.method,
            "config": {
                "input": args.input,
                "memory_cap": args.memory_cap,
                **result.diagnostics["config"],
            },
            "rows": source.rows,
            "cols": source.cols,
            "passes_over_x": source.passes,
            "eigenvalues": _complex_pairs(result.eigenvalues),
            "relative_reconstruction_error": recon_error,
            "sketch_residual": sketch_residual,
            "dynamics_misfit": dynamics_misfit,
            "eigenpair_residual": result.diagnostics["eigenpair_residual"],
            "eigen_match_error": match_error,
            "timings": {
                **timings,
                "stages": result.diagnostics.get("timings", {}),
                "peak_rss_bytes": _peak_rss_bytes(),
            },
            "peak_alloc_bytes": guard.largest_bytes,
        }
    _write_json(os.path.join(args.out, "report.json"), report)
    kept = result.eigenvalues.size
    requested = "" if kept == cfg.target_rank else f" ({cfg.target_rank} requested)"
    print(
        f"{args.method}: rank {kept}{requested}, "
        f"relative reconstruction error {recon_error:.3e}"
    )
    return 0


def _cmd_bench(args) -> int:
    truth = _load_truth(args.truth) if args.truth else None
    base = _build_config(args, "rdmd")
    rows = []
    summary = {}
    timing = {}
    # one block, as in decompose: every pass walks the file in chunks
    with open_row_blocks(args.input, 1) as source:
        # An equal-sketch-size comparison: cdmd compresses to k + p rows unless told.
        compress_dim = (
            args.compress_dim
            if args.compress_dim is not None
            else min(source.rows, base.sketch.sketch_size)
        )
        for method in ("dmd", "rdmd", "cdmd"):
            runs = []
            for trial in range(args.seeds):
                # the deterministic method ignores the seed, so its first run
                # stands for every trial
                if method != "dmd" or trial == 0:
                    cfg = replace(
                        base, method=_METHOD_FLAGS[method],
                        seed=derive_seed(args.seed, trial), compress_dim=compress_dim,
                    )
                    _, (recon, _, _), match = _run(
                        lambda: run_dmd(source, cfg), row_chunks(source), truth, timing
                    )
                    dt = timing["decompose"]
                match_text = "" if match is None else f"{match:.17g}"
                rows.append([method, trial, match_text, f"{recon:.17g}", f"{dt:.6f}"])
                runs.append((match, recon, dt))
            summary[method] = {
                "eigen_match_error": _mean_std([r[0] for r in runs if r[0] is not None]),
                "reconstruction_error": _mean_std([r[1] for r in runs]),
                "time_s": _mean_std([r[2] for r in runs]),
            }

    report = {
        "config": {
            "input": args.input,
            "rank": args.rank,
            "seeds": args.seeds,
            "oversample": args.oversample,
            "power_iters": args.power_iters,
            "compress_dim": compress_dim,
            "sampling": args.sampling,
            "seed": args.seed,
        },
        "methods": summary,
    }
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "bench_report.json"), report)
    header = "method,trial,eigen_match_error,reconstruction_error,time_s\n"
    lines = "".join(",".join(str(c) for c in row) + "\n" for row in rows)
    write_atomic(os.path.join(args.out, "bench_runs.csv"), (header + lines).encode("utf-8"))
    for method in ("dmd", "rdmd", "cdmd"):
        stats = summary[method]
        mean_match = stats["eigen_match_error"]["mean"]
        match_text = "n/a" if mean_match is None else f"{mean_match:.3e}"
        print(
            f"{method}: match {match_text} "
            f"recon {stats['reconstruction_error']['mean']:.3e} "
            f"time {stats['time_s']['mean'] * 1e3:.1f} ms"
        )
    return 0


def _cmd_qb(args) -> int:
    cfg = SketchConfig(args.rank, args.oversample, args.power_iters, args.seed)
    timing = {}
    # one block: every pass walks the file in chunks and releases their pages
    with open_row_blocks(args.input, 1) as source:
        with stage(timing, "qb"):
            qb = blocked_randomized_qb(source, cfg)
        # ||X - QB||^2 = ||X||^2 - ||B||^2, the sketch residual
        data_sq_norm = qb.data_sq_norm
        _require_finite(data_sq_norm)
        rel_error = _identity_or_streamed(
            data_sq_norm, data_sq_norm - frobenius_sq(qb.b), 0.0, row_chunks(source),
            lambda start, rows: qb.q[start : start + rows.shape[0]] @ qb.b,
        )[0]
        # sigma_{k+1} from the R factors of the row chunks: no n x m buffer
        sigma = singular_values_of_rows(rows for _, rows in row_chunks(source))
    sigma_next = float(sigma[args.rank]) if args.rank < sigma.size else 0.0
    bound = None
    if cfg.oversampling >= 2:
        bound = expected_error_bound(
            args.rank, cfg.oversampling, cfg.power_iters, source.cols, source.rows,
            sigma_next,
        ) / math.sqrt(data_sq_norm)
    report = {
        "rows": source.rows,
        "cols": source.cols,
        "rank": args.rank,
        "oversample": cfg.oversampling,
        "power_iters": cfg.power_iters,
        "seed": cfg.seed,
        "relative_error": rel_error,
        "expected_error_bound_relative": bound,
        "sigma_next": sigma_next,
        "time_s": timing["qb"],
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out:
        _write_json(args.out, report)
    return 0


def _cmd_reconstruct(args) -> int:
    modes = read_complex_matrix(args.modes, "modes")
    eigenvalues = read_complex_csv(os.path.join(args.modes, "eigenvalues.csv"))
    amplitudes = read_complex_csv(os.path.join(args.modes, "amplitudes.csv"))
    result = DmdResult(
        eigenvalues=eigenvalues,
        modes=modes,
        low_dim_eigvecs=np.eye(eigenvalues.size, dtype=np.complex128),
        amplitudes=amplitudes,
        method="deterministic_projected",
    )
    # one row chunk of the modes at a time: the n x steps output is never
    # whole in memory
    n = modes.shape[0]
    write_sms_rows(args.out, (n, args.steps), (
        reconstruct(replace(result, modes=modes[lo : lo + _CHUNK_ROWS]), args.steps)
        for lo in range(0, n, _CHUNK_ROWS)
    ))
    print(f"wrote {n}x{args.steps} reconstruction to {args.out}")
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdmd",
        description="Randomized dynamic mode decomposition toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by several subcommands, each declared once, in parent
    # parsers. A string default is parsed like a command-line value, so a
    # bad RDMD_SEED is a usage error.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=os.environ.get("RDMD_SEED", "0"),
                        help="master seed (default: $RDMD_SEED, else 0)")
    sketched = argparse.ArgumentParser(add_help=False, parents=[seeded])
    sketched.add_argument("--input", required=True)
    sketched.add_argument("--rank", type=_ranged(int, 1), required=True)
    sketched.add_argument("--oversample", type=_ranged(int, 0),
                          default=SketchConfig.oversampling)
    sketched.add_argument("--power-iters", type=_ranged(int, 0),
                          default=SketchConfig.power_iters)

    def compared(sampling: str) -> argparse.ArgumentParser:
        # one parser per default of --sampling: parents share their actions
        p = argparse.ArgumentParser(add_help=False, parents=[sketched])
        p.add_argument("--compress-dim", type=_ranged(int, 1), default=None)
        p.add_argument("--sampling", choices=("uniform", "gaussian"), default=sampling)
        p.add_argument("--truth", default=None, help="ground truth JSON from synth")
        return p

    p = sub.add_parser("synth", parents=[seeded], help="generate synthetic snapshot data")
    p.add_argument("--rows", type=_ranged(int, 1), required=True)
    p.add_argument("--snapshots", type=_ranged(int, 2), required=True,
                   help="total snapshot count (columns of the output)")
    p.add_argument("--modes", type=_parse_modes, required=True,
                   help="comma-separated EIG[:AMP] complex literals")
    p.add_argument("--snr", type=_ranged(float, 0, strict=True), default=None,
                   help="variance-ratio SNR; omit for noise-free data")
    p.add_argument("--out", required=True)
    p.add_argument("--truth", default=None, help="write ground truth JSON here")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("decompose", parents=[compared("gaussian")],
                       help="run one decomposition method")
    p.add_argument("--method", choices=sorted(_METHOD_FLAGS), required=True)
    p.add_argument("--blocks", type=_ranged(int, 1), default=1)
    p.add_argument("--memory-cap", type=_ranged(int, 0), default=None,
                   help="fail if any single tracked allocation exceeds this many bytes")
    p.add_argument("--out", default="rdmd-out")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("bench", parents=[compared("uniform")],
                       help="compare all three methods")
    p.add_argument("--seeds", type=_ranged(int, 1), default=20)
    p.add_argument("--out", default="rdmd-bench")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("qb", parents=[sketched], help="randomized QB factorization only")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_qb)

    p = sub.add_parser("reconstruct", help="replay modes into a snapshot file")
    p.add_argument("--modes", required=True,
                   help="directory holding modes_{re,im}.sms, eigenvalues.csv, amplitudes.csv")
    p.add_argument("--steps", type=_ranged(int, 1), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RdmdError as exc:
        print(f"{exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
