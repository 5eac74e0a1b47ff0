"""Command-line front end.

Subcommands: synth (generate data), decompose (run one method), bench
(compare all three), qb (range finder only), reconstruct (replay modes).
Reports are JSON, series are CSV; every output is written atomically.
Exit codes: 0 success, 1 runtime failure (error class named on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import memguard
from .datasets import (
    ModeSpec,
    add_noise,
    open_row_blocks,
    read_complex_csv,
    read_complex_matrix,
    read_sms,
    synth_linear_dynamics,
    write_atomic,
    write_complex_csv,
    write_complex_matrix,
    write_sms,
)
from .dmd import (
    DmdConfig,
    DmdResult,
    dmd_randomized_blocked,
    eigen_match_error,
    reconstruct,
    run_dmd,
)
from .errors import RdmdError
from .linalg import frobenius_sq, singular_values_of_rows
from .memguard import stage
from .rng import derive_seed
from .sketch import expected_error_bound, randomized_qb

_METHOD_FLAGS = {
    "dmd": "deterministic_projected",
    "rdmd": "randomized",
    "cdmd": "compressed",
}
_SAMPLING_FLAGS = {"uniform": "uniform_rows", "gaussian": "gaussian"}
# Rows per chunk of the in-memory error passes (`decompose`, `bench`, `qb`):
# the chunk's approximation, not an n x m one, is what they hold beside the
# data.
_DIAGNOSTIC_CHUNK_ROWS = 4096
# Smallest relative reconstruction error taken from the sketch identity. Its
# difference ||X||^2 - ||B||^2 cancels as the error shrinks: the identity
# departs from the streamed pass by about 1.3e-15 / error^2 relative, so
# 1e-3 keeps the two within 1e-8 (1e-4 would not).
_IDENTITY_MIN_ERROR = 1e-3


def _default_seed(value):
    if value is not None:
        return value
    return int(os.environ.get("RDMD_SEED", "0"))


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


def _relative_residual(blocks, approximate) -> float:
    """Relative Frobenius error ||X - A|| / ||X|| over (start, block) row
    blocks of the data X, where approximate(start, block) returns a fresh
    array holding the rows of A: one block and its approximation are
    resident at a time."""
    num = den = 0.0
    for start, block in blocks:
        residual = approximate(start, block)
        np.subtract(block, residual, out=residual)  # in place: no second buffer
        num += float(np.vdot(residual, residual))
        den += float(np.vdot(block, block))
        del residual  # before the next block's approximation is formed
    return float(np.sqrt(num) / np.sqrt(den)) if den > 0 else 0.0


def _identity_error(data_sq_norm: float, residual_sq: float, misfit_sq: float = 0.0):
    """sqrt((residual_sq + misfit_sq) / data_sq_norm), the relative error of
    the sketch identity, or None where it is not trusted: a sketch residual
    ||X||^2 - ||B||^2 that cancelled below zero, or an error below
    _IDENTITY_MIN_ERROR."""
    if residual_sq < 0 or not data_sq_norm > 0:
        return None
    error = math.sqrt((residual_sq + misfit_sq) / data_sq_norm)
    return error if error >= _IDENTITY_MIN_ERROR else None


def _streamed_error(result: DmdResult, blocks) -> float:
    """Relative error of the DMD reconstruction of `result` against the data
    X, streamed over the (start, block) row blocks of X in `blocks`."""

    def approximate(start, block):
        part = replace(result, modes=result.modes[start : start + block.shape[0]])
        return reconstruct(part, block.shape[1])

    return _relative_residual(blocks, approximate)


def _reconstruction_error(result: DmdResult, blocks) -> tuple[float, float | None, float | None]:
    """Relative error of the DMD reconstruction of `result` against the data
    X, with the sketch residual and the dynamics misfit it splits into, each
    relative to ||X||_F.

    The error comes from the result's `SketchFit` in its l-dimensional
    coordinates, and the (start, block) row blocks of X in `blocks` are not
    read. Where that error is below _IDENTITY_MIN_ERROR or the sketch
    residual cancelled below zero, `_streamed_error` over `blocks` takes its
    place, with no split to report (None, None).
    """
    fit = result.sketch
    residual_sq = fit.data_sq_norm - frobenius_sq(fit.data)
    misfit_sq = frobenius_sq(
        fit.data - reconstruct(replace(result, modes=fit.modes), fit.data.shape[1])
    )
    error = _identity_error(fit.data_sq_norm, residual_sq, misfit_sq)
    if error is None:
        return _streamed_error(result, blocks), None, None
    return (
        error,
        math.sqrt(residual_sq / fit.data_sq_norm),
        math.sqrt(misfit_sq / fit.data_sq_norm),
    )


def _row_chunks(data: np.ndarray):
    """(start, rows) views of an in-memory matrix for `_relative_residual`."""
    for start in range(0, data.shape[0], _DIAGNOSTIC_CHUNK_ROWS):
        yield start, data[start : start + _DIAGNOSTIC_CHUNK_ROWS]


def _load_truth(path):
    from .errors import IoFailure

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return np.array([complex(re, im) for re, im in data["eigenvalues"]])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise IoFailure(f"reading truth file {path}: {exc}") from exc


# --- subcommands -------------------------------------------------------------


def _cmd_synth(args) -> int:
    seed = _default_seed(args.seed)
    if args.snapshots < 2:
        raise RdmdError(f"need at least 2 snapshots, got {args.snapshots}")
    truth = synth_linear_dynamics(args.rows, args.snapshots - 1, args.modes, seed)
    data = truth.clean_data
    if args.snr is not None:
        data = add_noise(data, args.snr, derive_seed(seed, 2**32))
    write_sms(data, args.out)
    if args.truth:
        _write_json(
            args.truth,
            {
                "eigenvalues": _complex_pairs(truth.eigenvalues),
                "amplitudes": _complex_pairs(truth.amplitudes),
                "rows": args.rows,
                "snapshots": args.snapshots,
                "seed": seed,
                "snr": args.snr,
            },
        )
    print(f"wrote {args.rows}x{args.snapshots} snapshot matrix to {args.out}")
    return 0


def _build_config(args, method: str, seed: int, compress_dim: int | None = None) -> DmdConfig:
    """The run configuration of `decompose`, `bench` and `qb`; a sketch flag
    left unset keeps DmdConfig's default."""
    sketch_flags = {"oversampling": args.oversample, "power_iters": args.power_iters}
    return DmdConfig(
        target_rank=args.rank,
        method=_METHOD_FLAGS[method],
        seed=seed,
        compress_dim=compress_dim,
        sampling=_SAMPLING_FLAGS[args.sampling],
        **{name: value for name, value in sketch_flags.items() if value is not None},
    )


def _cmd_decompose(args) -> int:
    if args.blocks > 1 and args.method != "rdmd":
        print("error: --blocks > 1 requires --method rdmd", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    cfg = _build_config(args, args.method, _default_seed(args.seed), args.compress_dim)

    timings = {}
    with memguard.session(cap_bytes=args.memory_cap) as guard:
        if args.blocks > 1:
            with stage(timings, "load"):
                source = open_row_blocks(args.input, args.blocks)
            rows, cols = source.rows, source.cols
            with source:
                with stage(timings, "decompose"):
                    result = dmd_randomized_blocked(source, cfg)
                with stage(timings, "diagnostics"):
                    # lazy: the blocks are read again only by a streamed pass
                    blocks = (
                        (start, source.read_block(i))
                        for i, (start, _) in enumerate(source.block_ranges)
                    )
                    errors = _reconstruction_error(result, blocks)
        else:
            with stage(timings, "load"):
                data = read_sms(args.input)
            rows, cols = data.shape
            with stage(timings, "decompose"):
                result = run_dmd(data, cfg)
            with stage(timings, "diagnostics"):
                errors = _reconstruction_error(result, _row_chunks(data))
        recon_error, sketch_residual, dynamics_misfit = errors

        match_error = None
        if args.truth:
            match_error = float(
                eigen_match_error(_load_truth(args.truth), result.eigenvalues)
            )

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
            "rows": rows,
            "cols": cols,
            "eigenvalues": _complex_pairs(result.eigenvalues),
            "relative_reconstruction_error": recon_error,
            "sketch_residual": sketch_residual,
            "dynamics_misfit": dynamics_misfit,
            "eigenpair_residual": result.diagnostics["eigenpair_residual"],
            "eigen_match_error": match_error,
            "timings": {**timings, "stages": result.diagnostics.get("timings", {})},
            "peak_alloc_bytes": guard.largest_bytes,
        }
    _write_json(os.path.join(args.out, "report.json"), report)
    print(
        f"{args.method}: rank {cfg.target_rank}, "
        f"relative reconstruction error {recon_error:.3e}"
    )
    return 0


def _cmd_bench(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    data = read_sms(args.input)
    truth = _load_truth(args.truth) if args.truth else None
    seed0 = _default_seed(args.seed)
    base = _build_config(args, "rdmd", seed0)
    # An equal-sketch-size comparison: cdmd compresses to k + p rows unless told.
    compress_dim = (
        args.compress_dim
        if args.compress_dim is not None
        else min(data.shape[0], base.sketch.sketch_size)
    )

    rows = []
    summary = {}
    timing = {}
    for method in ("dmd", "rdmd", "cdmd"):
        match_errors, recon_errors, elapsed = [], [], []
        for trial in range(args.seeds):
            # the deterministic method ignores the seed, so its first run
            # stands for every trial
            if method != "dmd" or trial == 0:
                cfg = _build_config(args, method, derive_seed(seed0, trial), compress_dim)
                with stage(timing, "run"):
                    result = run_dmd(data, cfg)
                dt = timing["run"]
                recon = _reconstruction_error(result, _row_chunks(data))[0]
                match = (
                    float(eigen_match_error(truth, result.eigenvalues))
                    if truth is not None
                    else None
                )
            match_text = "" if match is None else f"{match:.17g}"
            rows.append([method, trial, match_text, f"{recon:.17g}", f"{dt:.6f}"])
            if match is not None:
                match_errors.append(match)
            recon_errors.append(recon)
            elapsed.append(dt)
        summary[method] = {
            "eigen_match_error": {
                "mean": float(np.mean(match_errors)) if match_errors else None,
                "std": float(np.std(match_errors)) if match_errors else None,
            },
            "reconstruction_error": {
                "mean": float(np.mean(recon_errors)),
                "std": float(np.std(recon_errors)),
            },
            "time_s": {
                "mean": float(np.mean(elapsed)),
                "std": float(np.std(elapsed)),
            },
        }

    report = {
        "config": {
            "input": args.input,
            "rank": args.rank,
            "seeds": args.seeds,
            "oversample": base.oversampling,
            "power_iters": base.power_iters,
            "compress_dim": compress_dim,
            "sampling": args.sampling,
            "seed": seed0,
        },
        "methods": summary,
    }
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
    data = read_sms(args.input)
    cfg = _build_config(args, "rdmd", _default_seed(args.seed)).sketch
    timing = {}
    with stage(timing, "qb"):
        qb = randomized_qb(data, cfg)
    # ||X - QB||^2 = ||X||^2 - ||B||^2, the sketch residual; the streamed pass
    # over the data only where that identity is not trusted
    data_sq_norm = frobenius_sq(data)
    rel_error = _identity_error(data_sq_norm, data_sq_norm - frobenius_sq(qb.b))
    if rel_error is None:
        rel_error = _relative_residual(
            _row_chunks(data), lambda start, block: qb.q[start : start + block.shape[0]] @ qb.b
        )
    # sigma_{k+1} from the R factors of the row chunks: no n x m buffer
    sigma = singular_values_of_rows(block for _, block in _row_chunks(data))
    sigma_next = float(sigma[args.rank]) if args.rank < sigma.size else 0.0
    bound = None
    if cfg.oversampling >= 2:
        bound = expected_error_bound(
            args.rank, cfg.oversampling, cfg.power_iters, data.shape[1], data.shape[0],
            sigma_next,
        ) / float(np.linalg.norm(data))
    report = {
        "rows": data.shape[0],
        "cols": data.shape[1],
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
    write_sms(reconstruct(result, args.steps), args.out)
    print(f"wrote {modes.shape[0]}x{args.steps} reconstruction to {args.out}")
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdmd",
        description="Randomized dynamic mode decomposition toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic snapshot data")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--snapshots", type=int, required=True,
                   help="total snapshot count (columns of the output)")
    p.add_argument("--modes", type=_parse_modes, required=True,
                   help="comma-separated EIG[:AMP] complex literals")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--snr", type=float, default=None,
                   help="variance-ratio SNR; omit for noise-free data")
    p.add_argument("--out", required=True)
    p.add_argument("--truth", default=None, help="write ground truth JSON here")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("decompose", help="run one decomposition method")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=sorted(_METHOD_FLAGS), required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--oversample", type=int, default=None)
    p.add_argument("--power-iters", type=int, default=None)
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--compress-dim", type=int, default=None)
    p.add_argument("--sampling", choices=("uniform", "gaussian"), default="gaussian")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--truth", default=None)
    p.add_argument("--memory-cap", type=int, default=None,
                   help="fail if any single tracked allocation exceeds this many bytes")
    p.add_argument("--out", default="rdmd-out")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("bench", help="compare all three methods")
    p.add_argument("--input", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--truth", default=None)
    p.add_argument("--oversample", type=int, default=None)
    p.add_argument("--power-iters", type=int, default=None)
    p.add_argument("--compress-dim", type=int, default=None)
    p.add_argument("--sampling", choices=("uniform", "gaussian"), default="uniform")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="rdmd-bench")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("qb", help="randomized QB factorization only")
    p.add_argument("--input", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--oversample", type=int, default=None)
    p.add_argument("--power-iters", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    # qb has no --sampling flag; `_build_config` reads the library default
    p.set_defaults(func=_cmd_qb, sampling="gaussian")

    p = sub.add_parser("reconstruct", help="replay modes into a snapshot file")
    p.add_argument("--modes", required=True,
                   help="directory holding modes_{re,im}.sms, eigenvalues.csv, amplitudes.csv")
    p.add_argument("--steps", type=int, required=True)
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
