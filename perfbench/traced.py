"""Run one `rdmd` command in-process with spans around the library's layers.

Usage: python traced.py SPANS_JSON RUN_ID -- RDMD_ARGS...

Wraps the public functions the CLI reaches at the module attribute each
caller looks them up through (the import site), calls `rdmd.cli.main(argv)`,
then writes every span to SPANS_JSON and exits with main's return code.
Nothing inside the program is changed: the spans time each call from the
outside. A span records name, start, end, parent index, run id and the
counts taken at that boundary (bytes, draws, shapes).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time


class Tracer:
    """Spans kept in memory; `dump` writes them once the command has ended."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def span(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            record = {"name": name, "parent": parent, "run": self.run_id}
            self.spans.append(record)
            self._stack.append(index)
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                record.update(counts(args, result))
            return result

        return wrapper

    def wrap(self, module_name: str, attr: str, name: str, counts=None) -> None:
        """Replace `module.attr` (or `module.Class.attr`) with a timed wrapper.

        A site the program no longer has is skipped and listed in `missing`,
        so a refactor shows up as a named gap in the trace, not as a crash.
        """
        owner_path, _, cls = module_name.partition(":")
        owner = importlib.import_module(owner_path)
        if cls:
            owner = getattr(owner, cls, None)
        if owner is None or not callable(getattr(owner, attr, None)):
            self.missing.append(f"{module_name}.{attr}")
            return
        setattr(owner, attr, self.span(name, getattr(owner, attr), counts))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "missing": self.missing, "spans": self.spans}, fh)


def _nbytes(args, result):
    return {"bytes": int(result.nbytes)}


def _draws(args, result):
    return {"draws": int(result.size)}


def _csv_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _matrix_bytes(args, result):
    directory, base = args[0], args[1]
    return {"bytes": sum(os.path.getsize(os.path.join(directory, f"{base}_{part}.sms"))
                         for part in ("re", "im"))}


def _qb_shape(args, result):
    x, cfg = args[0], args[1]
    n, m = x.shape
    return {"n": n, "m": m, "l": cfg.sketch_size, "q": cfg.power_iters}


def _svd_shape(args, result):
    n, m = args[0].shape
    return {"n": n, "m": m}


def _blocks(args, result):
    return {"blocks": int(args[0].block_count)}


# (import site, attribute, span name, counts). Sites are the module a caller
# looks the function up through, so each call is seen exactly once.
SITES = [
    ("rdmd.cli", "synth_linear_dynamics", "datasets.synth_linear_dynamics", None),
    ("rdmd.cli", "add_noise", "datasets.add_noise", None),
    ("rdmd.cli", "write_sms", "datasets.write_sms", None),
    ("rdmd.cli", "read_sms", "datasets.read_sms", _nbytes),
    ("rdmd.cli", "open_row_blocks", "datasets.open_row_blocks", None),
    ("rdmd.datasets:SmsRowBlockSource", "read_block", "datasets.read_block", _nbytes),
    ("rdmd.cli", "write_complex_csv", "datasets.write", _csv_bytes),
    ("rdmd.cli", "write_complex_matrix", "datasets.write", _matrix_bytes),
    ("rdmd.cli", "run_dmd", "dmd.entry", None),
    ("rdmd.cli", "dmd_randomized_blocked", "dmd.entry", None),
    ("rdmd.cli", "reconstruct", "dmd.reconstruct", None),
    ("rdmd.dmd", "blocked_randomized_qb", "blocked.blocked_randomized_qb", _blocks),
    ("rdmd.dmd", "apply_q", "blocked.apply_q", None),
    ("rdmd.dmd", "randomized_qb", "sketch.randomized_qb", _qb_shape),
    ("rdmd.blocked", "randomized_qb", "sketch.randomized_qb", _qb_shape),
    ("rdmd.dmd", "gaussian_test_matrix", "sketch.gaussian_test_matrix", None),
    ("rdmd.sketch", "gaussian_test_matrix", "sketch.gaussian_test_matrix", None),
    ("rdmd.dmd", "truncated_svd", "linalg.truncated_svd", _svd_shape),
    ("rdmd.sketch", "thin_qr_q", "linalg.thin_qr_q", None),
    ("rdmd.rng", "normals", "rng.normals", _draws),
    ("rdmd.datasets", "normals", "rng.normals", _draws),
]


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced.py SPANS_JSON RUN_ID -- RDMD_ARGS...", file=sys.stderr)
        return 2
    spans_path, run_id, rdmd_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    for site in SITES:
        tracer.wrap(*site)
    import rdmd.cli

    code = tracer.span("cli.main", rdmd.cli.main)(rdmd_args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
