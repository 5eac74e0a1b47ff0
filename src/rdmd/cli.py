"""Command-line front end.

Subcommands: synth (generate data), decompose (run one method), bench
(compare all three), qb (range finder only), reconstruct (replay modes).
Reports are JSON, series are CSV; every output is written atomically.
The reconstruction error of decompose, bench and qb comes from one
routine, `_relative_error`. Exit codes: 0 success, 1 runtime failure
(error class named on stderr; an output that cannot be written or an
--out that cannot be a directory is IoFailure, the latter raised before
the input is opened), 2 usage error, which includes every numeric flag out
of its range.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from dataclasses import replace

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np

from . import memguard
from .blocked import _require_finite, _require_finite_entries, frobenius_sq, row_chunks, row_spans
from .datasets import (
    ModeSpec,
    add_noise,  # no caller: a perfbench/traced.py site
    open_row_blocks,
    read_complex_csv,
    read_complex_matrix,
    read_sms,  # no caller: perfbench/traced.py's datasets.read_sms site
    synth_linear_dynamics,  # no caller: a perfbench/traced.py site
    write_atomic,
    write_complex_csv,
    write_complex_matrix,
    write_sms,  # no caller: a perfbench/traced.py site
    write_sms_rows,
    write_synth_sms,
)
from .dmd import (
    DmdConfig,
    DmdResult,
    eigen_match_error,
    reconstruct,
    run_dmd,
)
from .errors import EmptyInput, IoFailure, RdmdError
from .linalg import truncated_svd
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
    finite Python complex literal, e.g. '0.9,0.95+0.2j:1.5'. Conjugate
    partners of non-real eigenvalues are implied."""
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
        if not (cmath.isfinite(eig) and cmath.isfinite(amp)):
            raise argparse.ArgumentTypeError(f"bad mode entry {item!r}: not finite")
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


def _relative_error(source, data_sq_norm, b, c, approximate):
    """Relative error ||X - Q C||_F / ||X||_F of an approximation Q C of the
    data X whose row blocks `source` hands out, with the sketch residual and
    the misfit it splits into, each relative to ||X||_F. For B = Q^T X and
    data_sq_norm = ||X||_F^2 the sketch identity

        ||X - Q C||_F^2 = (||X||_F^2 - ||B||_F^2) + ||B - C||_F^2

    (Halko, Martinsson & Tropp, 2011, sec. 4) gives all three from the
    l x m matrices B and C, without reading X.

    The identity is not trusted where ||X||^2 - ||B||^2 cancelled below
    zero or the error is below _IDENTITY_MIN_ERROR. There one `row_chunks`
    walk sums ||X_i - A_i||^2 over the chunks X_i of X, approximate(start,
    X_i) returning a fresh array of the same rows of A = Q C, and divides
    by data_sq_norm, with no split to report (None, None). One chunk's
    approximation is resident beside the data, and each chunk is dropped
    before the next is read.
    """
    residual_sq = data_sq_norm - frobenius_sq(b)
    if residual_sq >= 0 and data_sq_norm > 0:
        misfit_sq = frobenius_sq(b - c)
        parts = residual_sq + misfit_sq, residual_sq, misfit_sq
        error, residual, misfit = (math.sqrt(sq / data_sq_norm) for sq in parts)
        if error >= _IDENTITY_MIN_ERROR:
            return error, residual, misfit
    num = 0.0
    for start, chunk in row_chunks(source):
        residual = approximate(start, chunk)
        np.subtract(chunk, residual, out=residual)  # in place: no second buffer
        num += float(np.vdot(residual, residual))
        del residual, chunk  # before the next chunk (or block) is formed
    error = float(np.sqrt(num) / np.sqrt(data_sq_norm)) if data_sq_norm > 0 else 0.0
    return error, None, None


def _check_out_dir(path) -> None:
    """Raise the IoFailure of `_make_out_dir` before any work where `path`
    cannot be a directory: it, or its nearest existing ancestor, is not
    one. Nothing is created: a failed run leaves no directory."""
    there = os.path.abspath(path)
    while not os.path.exists(there):
        there = os.path.dirname(there)
    if not os.path.isdir(there):
        raise IoFailure(f"creating directory {path}: {there} is not a directory")


def _make_out_dir(path) -> None:
    """Create the output directory `path` if it is not there; an OSError,
    such as `path` or a parent being a file, is raised as IoFailure."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"creating directory {path}: {exc}") from exc


def _peak_rss_bytes() -> int | None:
    """The process's peak resident set so far (`ru_maxrss`, which Linux
    gives in KiB and macOS in bytes), or None where the platform has no
    `resource` module."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def _load_truth(path):
    """The eigenvalues of a truth file (synth's --truth JSON). An empty
    list is EmptyInput and a NaN or Inf NonFiniteInput, each naming the
    file, so `decompose` and `bench` reject it before opening the input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        truth = np.array([complex(re, im) for re, im in data["eigenvalues"]])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise IoFailure(f"reading truth file {path}: {exc}") from exc
    if truth.size == 0:
        raise EmptyInput(f"truth file {path} lists no eigenvalues")
    _require_finite_entries(f"truth file {path}: eigenvalue", truth)
    return truth


def _run(source, cfg, truth, timings):
    """One decomposition as `decompose` and `bench` run it: `run_dmd` of the
    source, then its reconstruction error from the result's `SketchFit`
    (see `_relative_error`, whose fallback walks the source again) and,
    given truth eigenvalues, its eigen-match error. Returns (result,
    (error, sketch residual, dynamics misfit), match error or None)."""
    with stage(timings, "decompose"):
        result = run_dmd(source, cfg)
    with stage(timings, "diagnostics"):
        fit = result.sketch
        errors = _relative_error(
            source, fit.data_sq_norm, fit.data,
            reconstruct(replace(result, modes=fit.modes), fit.data.shape[1]),
            lambda start, rows: reconstruct(
                replace(result, modes=result.modes[start : start + rows.shape[0]]),
                rows.shape[1],
            ),
        )
        match = None if truth is None else float(eigen_match_error(truth, result.eigenvalues))
    return result, errors, match


def _mean_std(values) -> dict:
    """Mean and standard deviation of `values`, None for both if empty."""
    if not values:
        return {"mean": None, "std": None}
    return {"mean": float(np.mean(values)), "std": float(np.std(values))}


# --- subcommands -------------------------------------------------------------


def _cmd_synth(args) -> int:
    # formed in place in the output file, a row chunk at a time
    truth = write_synth_sms(
        args.out, args.rows, args.snapshots - 1, args.modes, args.seed,
        args.snr, derive_seed(args.seed, 2**32),
    )
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
    _check_out_dir(args.out)
    cfg = _build_config(args, args.method)
    truth = _load_truth(args.truth) if args.truth else None

    timings = {}
    with memguard.session(cap_bytes=args.memory_cap) as guard:
        with stage(timings, "load"):
            source = open_row_blocks(args.input, args.blocks)
        with source:
            result, errors, match_error = _run(source, cfg, truth, timings)
        recon_error, sketch_residual, dynamics_misfit = errors

        _make_out_dir(args.out)  # only now: a failed run leaves none
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
    _check_out_dir(args.out)
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
                    _, (recon, _, _), match = _run(source, cfg, truth, timing)
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
    _make_out_dir(args.out)
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
        data_sq_norm = qb.data_sq_norm
        _require_finite(data_sq_norm)
        # C = B: ||X - QB||^2 = ||X||^2 - ||B||^2, the sketch residual
        rel_error = _relative_error(
            source, data_sq_norm, qb.b, qb.b,
            lambda start, rows: qb.q[start : start + rows.shape[0]] @ qb.b,
        )[0]
        del qb  # the n x l basis goes before the SVD's U is formed
        # none where the data resolves at most k directions (the rank rule)
        sigma = truncated_svd(source, min(args.rank + 1, source.rows, source.cols)).singular_values
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
    # one chunk of the output's rows at a time: the n x steps output is
    # never whole in memory
    n = modes.shape[0]
    write_sms_rows(args.out, (n, args.steps), (
        reconstruct(replace(result, modes=modes[rows]), args.steps)
        for rows in row_spans(n, args.steps * 8)
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
