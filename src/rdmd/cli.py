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
    sms_shape,
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
from .linalg import truncated_svd
from .memguard import stage
from .rng import derive_seed
from .sketch import SketchConfig, expected_error_bound, randomized_qb

_METHOD_FLAGS = {
    "dmd": "deterministic_projected",
    "rdmd": "randomized",
    "cdmd": "compressed",
}
_SAMPLING_FLAGS = {"uniform": "uniform_rows", "gaussian": "gaussian"}
# Rows per chunk of the in-memory reconstruction-error pass: the chunk's
# reconstruction, not an n x m one, is what it holds beside the data.
_DIAGNOSTIC_CHUNK_ROWS = 4096


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


def _reconstruction_error(blocks, result: DmdResult) -> float:
    """Relative Frobenius error of the reconstruction over (start, block)
    row blocks of the data: one block and its reconstruction are resident
    at a time."""
    num = den = 0.0
    for start, block in blocks:
        part = replace(result, modes=result.modes[start : start + block.shape[0]])
        residual = reconstruct(part, block.shape[1])
        np.subtract(block, residual, out=residual)  # in place: no second buffer
        num += float(np.vdot(residual, residual))
        den += float(np.vdot(block, block))
    return float(np.sqrt(num) / np.sqrt(den)) if den > 0 else 0.0


def _row_chunks(data: np.ndarray):
    """(start, rows) views of an in-memory matrix for `_reconstruction_error`."""
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


def _sketch_config(args, seed: int) -> SketchConfig:
    return SketchConfig(
        target_rank=args.rank,
        oversampling=args.oversample if args.oversample is not None else 10,
        power_iters=args.power_iters if args.power_iters is not None else 2,
        seed=seed,
    )


def _build_config(args, method: str, seed: int, compress_dim: int | None) -> DmdConfig:
    return DmdConfig(
        target_rank=args.rank,
        method=_METHOD_FLAGS[method],
        sketch=_sketch_config(args, seed),
        compress_dim=compress_dim,
        sampling=_SAMPLING_FLAGS[args.sampling],
    )


def _cmd_decompose(args) -> int:
    if args.blocks > 1 and args.method != "rdmd":
        print("error: --blocks > 1 requires --method rdmd", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    rows, cols = sms_shape(args.input)
    compress_dim = args.compress_dim
    if args.method == "cdmd" and compress_dim is None:
        compress_dim = min(rows, 10 * args.rank)
    cfg = _build_config(args, args.method, _default_seed(args.seed), compress_dim)

    timings = {}
    with memguard.session(cap_bytes=args.memory_cap) as guard:
        if args.blocks > 1:
            with stage(timings, "load"):
                source = open_row_blocks(args.input, args.blocks)
            with source:
                with stage(timings, "decompose"):
                    result = dmd_randomized_blocked(source, cfg)
                with stage(timings, "diagnostics"):
                    blocks = (
                        (start, source.read_block(i))
                        for i, (start, _) in enumerate(source.block_ranges)
                    )
                    recon_error = _reconstruction_error(blocks, result)
        else:
            with stage(timings, "load"):
                data = read_sms(args.input)
            with stage(timings, "decompose"):
                result = run_dmd(data, cfg)
            with stage(timings, "diagnostics"):
                recon_error = _reconstruction_error(_row_chunks(data), result)

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
                "rank": cfg.target_rank,
                "oversample": cfg.sketch.oversampling,
                "power_iters": cfg.sketch.power_iters,
                "sketch_size": cfg.sketch.sketch_size,
                "compress_dim": cfg.compress_dim,
                "sampling": args.sampling if args.method == "cdmd" else None,
                "blocks": args.blocks,
                "seed": cfg.sketch.seed,
                "snr": None,
                "memory_cap": args.memory_cap,
            },
            "rows": rows,
            "cols": cols,
            "eigenvalues": _complex_pairs(result.eigenvalues),
            "relative_reconstruction_error": recon_error,
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
    sketch = _sketch_config(args, seed0)
    # An equal-sketch-size comparison: cdmd compresses to k + p rows unless told.
    compress_dim = (
        args.compress_dim
        if args.compress_dim is not None
        else min(data.shape[0], sketch.sketch_size)
    )

    rows = []
    summary = {}
    timing = {}
    for method in ("dmd", "rdmd", "cdmd"):
        match_errors, recon_errors, elapsed = [], [], []
        for trial in range(args.seeds):
            cfg = _build_config(args, method, derive_seed(seed0, trial), compress_dim)
            with stage(timing, "run"):
                result = run_dmd(data, cfg)
            dt = timing["run"]
            recon = _reconstruction_error(_row_chunks(data), result)
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
            "oversample": sketch.oversampling,
            "power_iters": sketch.power_iters,
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
    cfg = _sketch_config(args, _default_seed(args.seed))
    timing = {}
    with stage(timing, "qb"):
        qb = randomized_qb(data, cfg)
    rel_error = float(
        np.linalg.norm(data - qb.q @ qb.b) / np.linalg.norm(data)
    )
    sigma_next = (
        float(truncated_svd(data, args.rank + 1).singular_values[args.rank])
        if args.rank < min(data.shape)
        else 0.0
    )
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
    p.set_defaults(func=_cmd_qb)

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
