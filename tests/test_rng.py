import importlib.util
import json
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import rdmd
from rdmd import rng
from rdmd.rng import (
    CounterStream,
    add_normals_into,
    derive_seed,
    normal_columns_into,
    normal_matrix,
    normals,
    parallel_map,
    raw_stream,
    uniforms,
)

_MASK = (1 << 64) - 1


def _reference_raw(seed: int, index: int) -> int:
    """Scalar pure-Python SplitMix64, independent of the vectorized path."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def test_raw_stream_matches_scalar_reference():
    for seed in (0, 7, 12345, 2**63 + 11, _MASK):
        got = raw_stream(seed, 0, 16)
        expected = [_reference_raw(seed, i) for i in range(16)]
        assert [int(v) for v in got] == expected


def test_raw_stream_golden_values():
    # frozen from the scalar reference; seed 0 leads with 0xE220A8397B1DCDAF,
    # the generator's published first output
    assert [int(v) for v in raw_stream(0, 0, 3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
    assert int(raw_stream(2**63 + 11, 1000, 1)[0]) == 2068928560366818944


def test_counter_addressing_is_consistent():
    whole = raw_stream(99, 0, 50)
    tail = raw_stream(99, 20, 30)
    assert np.array_equal(whole[20:], tail)


def test_uniforms_in_half_open_unit_interval():
    u = uniforms(3, 0, 100_000)
    assert u.min() > 0.0
    assert u.max() <= 1.0


def test_normals_deterministic_and_seed_sensitive():
    a = normals(42, 0, 257)
    b = normals(42, 0, 257)
    c = normals(43, 0, 257)
    assert np.array_equal(a, b)
    assert np.any(a != c)


def test_normals_first_pair_golden():
    # frozen from the scalar reference + Box-Muller by hand
    z = normals(7, 0, 2)
    assert abs(z[0] - 1.364992297457228) < 1e-12
    assert abs(z[1] - 0.14452122126941588) < 1e-12


def test_normals_moments():
    z = normals(11, 0, 10_000)
    assert abs(z.mean()) < 0.05
    assert abs(z.var() - 1.0) < 0.05


def test_normal_matrix_row_major_fill():
    flat = normals(5, 0, 12)
    assert np.array_equal(normal_matrix(3, 4, 5), flat.reshape(3, 4))


def test_odd_count_consumes_full_pair():
    a = normals(8, 0, 5)
    b = normals(8, 0, 6)
    assert np.array_equal(a, b[:5])


def test_derive_seed_index_zero_is_identity():
    assert derive_seed(123, 0) == 123
    assert derive_seed(2**64 + 5, 0) == 5  # masked to 64 bits


def test_derive_seed_decorrelates():
    children = {derive_seed(9, i) for i in range(100)}
    assert len(children) == 100
    # child streams differ from the parent stream
    assert not np.array_equal(raw_stream(derive_seed(9, 1), 0, 8), raw_stream(9, 0, 8))


def test_counter_stream_tracks_offsets():
    s = CounterStream(17)
    first = s.normals(3)   # consumes 4 uniforms
    second = s.normals(2)
    assert np.array_equal(first, normals(17, 0, 3))
    assert np.array_equal(second, normals(17, 4, 2))


class TestChunkedKernel:
    """The chunked in-place kernel against the unchunked formulas."""

    @staticmethod
    def reference_uniforms(seed, start, count):
        ctr = np.arange(count, dtype=np.uint64) + np.uint64((start + 1) & _MASK)
        z = np.uint64(seed & _MASK) + ctr * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
        return ((z >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53

    @classmethod
    def reference_normals(cls, seed, start, count):
        # half-angle Box-Muller in the kernel's operation order: with
        # t = tan(pi u_odd) and a = r / (1 + t^2), the pair (1 - t^2) a, 2 t a
        pairs = (count + 1) // 2
        u = cls.reference_uniforms(seed, start, 2 * pairs)
        radius = np.sqrt(np.log(u[0::2]) * -2.0)
        t = np.tan(u[1::2] * np.pi)
        sq = t * t
        a = radius / (sq + 1.0)
        out = np.empty(2 * pairs)
        out[0::2] = (1.0 - sq) * a
        out[1::2] = (t + t) * a
        return out[:count]

    CHUNK = 2 * rng._CHUNK_PAIRS  # uniforms per chunk
    COUNTS = [0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 3 * rng._CHUNK_PAIRS + 7]

    @pytest.mark.parametrize("start", [0, 1, 6, 2**40 + 3])
    @pytest.mark.parametrize("count", COUNTS)
    def test_bit_identical_to_unchunked_reference(self, start, count):
        seed = 2**63 + 11
        got_u, got_z = uniforms(seed, start, count), normals(seed, start, count)
        assert got_u.shape == got_z.shape == (count,)
        assert got_u.tobytes() == self.reference_uniforms(seed, start, count).tobytes()
        assert got_z.tobytes() == self.reference_normals(seed, start, count).tobytes()

    def test_raw_stream_across_chunks_matches_scalar_reference(self):
        got = raw_stream(5, self.CHUNK - 3, 6)
        assert [int(v) for v in got] == [_reference_raw(5, self.CHUNK - 3 + i) for i in range(6)]

    @pytest.mark.parametrize("rows, cols", [(3, 7), (4, 2 * rng._CHUNK_PAIRS + 5)])
    @pytest.mark.parametrize("first, width", [(0, None), (1, None), (3, 2), (-1, 1)])
    def test_normal_columns_into_is_a_column_block(self, rows, cols, first, width):
        # odd cols puts every other row start at an odd draw of the pairing
        first %= cols
        width = cols - first if width is None else width
        out = np.empty((rows, width))
        normal_columns_into(out, cols, first, seed=9)
        assert out.tobytes() == normal_matrix(rows, cols, 9)[:, first : first + width].tobytes()

    def test_normal_columns_into_rejects_columns_outside_the_matrix(self):
        with pytest.raises(ValueError):
            normal_columns_into(np.empty((2, 3)), 4, 2, seed=1)

    def test_negative_count_is_rejected(self):
        for draw in (raw_stream, uniforms, normals):
            with pytest.raises(ValueError):
                draw(1, 0, -1)


def _trigonometric_normals(u):
    """Textbook Box-Muller of the uniform pairs (u[2j], u[2j + 1])."""
    radius = np.sqrt(-2.0 * np.log(u[0::2]))
    angle = (2.0 * np.pi) * u[1::2]
    out = np.empty(u.size)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out


class TestHalfAngleTransform:
    """The half-angle pair against trigonometric Box-Muller."""

    def test_within_rounding_of_the_trigonometric_pair(self):
        count = 2_000_000
        got = normals(2**63 + 11, 0, count)
        want = _trigonometric_normals(uniforms(2**63 + 11, 0, count))
        assert np.abs(got - want).max() < 1e-14

    @pytest.mark.parametrize("u_odd", [0.5, 1.0, 2.0**-53])
    @pytest.mark.parametrize("u_even", [2.0**-53, 0.3, 1.0])
    def test_edge_pairs(self, monkeypatch, u_even, u_odd):
        # the kernel's uniforms replaced by the pair (u_even, u_odd)
        def pair(seed, start, u, z, tmp):
            u[0::2], u[1::2] = u_even, u_odd
            return u

        monkeypatch.setattr(rng, "_uniforms_into", pair)
        got = normals(1, 0, 2)
        want = _trigonometric_normals(np.array([u_even, u_odd]))
        assert np.isfinite(got).all()
        assert np.abs(got - want).max() < 1e-14
        if u_odd == 0.5:  # tan(pi / 2) is about 1.6e16: the pair is (-r, ~0)
            r = np.sqrt(-2.0 * np.log(u_even))
            assert got[0] == -r and abs(got[1]) <= 1e-15 * r


class TestAddNormalsInto:
    # an odd start draws its first value from the pair of the draw before
    @pytest.mark.parametrize("start", [0, 1, 2, 2 * rng._CHUNK_PAIRS - 2, 2 * rng._CHUNK_PAIRS - 1])
    @pytest.mark.parametrize("count", [1, 6, 2 * rng._CHUNK_PAIRS + 3])
    def test_bytes_of_the_serial_expression(self, start, count):
        base = normals(4, 0, count)
        out = base.copy()
        assert add_normals_into(out, 1.7, seed=12, start=start) is out
        expected = normals(12, 0, start + count)[start:]
        expected *= 1.7
        expected += base
        assert out.tobytes() == expected.tobytes()


class TestParallelMap:
    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_results_in_job_order(self, use_workers, workers):
        use_workers(workers)
        assert parallel_map(lambda j: j * j, range(20)) == [j * j for j in range(20)]

    def test_one_worker_or_one_job_runs_in_the_caller(self, use_workers, monkeypatch):
        def no_pool(workers):
            raise AssertionError("pool created")

        monkeypatch.setattr(rng, "_make_pool", no_pool)
        threads = []
        use_workers(1)
        parallel_map(lambda j: threads.append(threading.get_ident()), range(5))
        use_workers(4)
        parallel_map(lambda j: threads.append(threading.get_ident()), [0])
        assert threads == [threading.get_ident()] * 6

    def test_a_job_exception_reaches_the_caller_once_every_job_ended(self, use_workers):
        use_workers(3)
        done = []

        def job(j):
            time.sleep(0.005)
            if j == 2:
                raise ValueError("job 2 failed")
            done.append(j)

        with pytest.raises(ValueError, match="job 2 failed"):
            parallel_map(job, range(9))
        assert sorted(done) == [0, 1, 3, 4, 5, 6, 7, 8]

    def test_a_forked_child_makes_its_own_pool(self, use_workers):
        use_workers(2)
        # both of the parent's threads exist, and are idle by the fork
        barrier = threading.Barrier(2, timeout=10.0)
        parallel_map(lambda job: barrier.wait(), [0, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if parallel_map(abs, [-1, -2, -3]) == [1, 2, 3] else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 20.0
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child waited on its parent's pool")
            time.sleep(0.02)
        assert os.waitstatus_to_exitcode(status[1]) == 0

    def test_many_workers_on_disjoint_ranges_stress(self, use_workers):
        # more workers than cores and a short switch interval: a range drawn
        # twice, dropped or shifted would change the bytes
        use_workers(8)
        count, job = 40_001, 96
        base = normals(3, 0, count)
        expected = normals(5, 0, count)
        expected *= 0.25
        expected += base
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 20.0
            for _ in range(3):
                out = base.copy()
                parallel_map(
                    lambda lo: add_normals_into(out[lo : lo + job], 0.25, 5, lo),
                    range(0, count, job),
                )
                assert out.tobytes() == expected.tobytes()
                assert time.monotonic() < deadline
        finally:
            sys.setswitchinterval(interval)


_NO_POOL_SCRIPT = """
import json, sys, threading
from rdmd import cli, rng

def no_pool(workers):
    raise AssertionError("the rng pool was created")

rng._make_pool = no_pool
rng._worker_count = lambda: 4
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
assert "concurrent.futures" not in sys.modules
assert threading.active_count() == 1, threading.enumerate()
print("no pool")
"""


def test_decompose_qb_and_bench_start_no_pool(tmp_path):
    """The parallel noise stays out of every decompose path: in one process
    running the benchmark's four `decompose` flag sets, `qb` and `bench`,
    the pool factory raises, `concurrent.futures` is never imported and no
    thread is started."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    specs = [rdmd.ModeSpec(1.0), rdmd.ModeSpec(0.995 + 0.2j, 0.5), rdmd.ModeSpec(0.97 + 0.35j, 0.25)]
    data = rdmd.synth_linear_dynamics(2000, 150, specs, seed=4).clean_data
    path = str(tmp_path / "x.sms")
    rdmd.write_sms(rdmd.add_noise(data, 10.0, seed=5), path)
    runs = [
        ["decompose", "--input", path, *flags, "--out", str(tmp_path / name)]
        for name, flags in bench.WORKLOADS.items()
    ]
    runs += [
        ["qb", "--input", path, "--rank", "5"],
        ["bench", "--input", path, "--rank", "5", "--seeds", "2", "--out", str(tmp_path / "b")],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_POOL_SCRIPT, json.dumps(runs)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.splitlines()[-1] == "no pool"
