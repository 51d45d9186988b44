"""Tests of the benchmark itself: its checker, its tracer and its contract.

    python3 -m pytest bench/test_bench.py
"""
import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import run

run.import_program()

import workloads  # noqa: E402
from tracing import EXCLUSIVE, LAYERS, Tracer  # noqa: E402


def short(wl, t_final):
    wl.sim = replace(wl.sim, t_final=t_final)
    return wl


@pytest.fixture
def record(tmp_path):
    wl = workloads.traj_record(seed=3)
    wl.out_dir = tmp_path
    return wl


def test_checker_accepts_density_and_rejects_each_defect():
    good = np.diag([0.7, 0.2, 0.1]).astype(complex)
    assert workloads.density_defects(good) == []
    non_hermitian = good.copy()
    non_hermitian[0, 1] = 0.1
    trace_11 = 1.1 * good
    negative = np.diag([0.7, 0.31, -0.01]).astype(complex)
    for state, word in ((non_hermitian, "Hermitian"), (trace_11, "trace"),
                        (negative, "eigenvalue")):
        defects = workloads.density_defects(np.stack([good, state]))
        assert len(defects) == 1 and word in defects[0], defects


@pytest.mark.parametrize("name", ["ens_qubit_fb", "ens_qutrit_open", "sse_n8"])
def test_traced_ensemble_job_counts_steps_and_stays_inside_wall(name):
    wl = workloads.BUILDERS[name](seed=5)
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer:
        out = wl.run(0)
    wall = time.perf_counter() - t0
    assert tracer.counts["integrate.traj_steps"] == wl.batch * wl.sim.n_steps
    assert tracer.counts["lyapunov.feedback_calls"] == wl.sim.n_steps + 1
    layers = tracer.metrics()
    assert 0.0 < sum(layers[k] for k in EXCLUSIVE) <= wall
    assert layers["integrate.self_s"] > 0.0
    assert wl.check(out) == []


def test_traced_cli_job_counts_steps_and_stays_inside_wall(record):
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer:
        out = record.run(0)
    wall = time.perf_counter() - t0
    assert tracer.counts["integrate.traj_steps"] == record.sim.n_steps
    assert tracer.counts["integrate.record_points"] == record.sim.n_steps + 1
    assert tracer.counts["ensemble.csv_bytes"] == out.csv_path.stat().st_size
    layers = tracer.metrics()
    assert 0.0 < sum(layers[k] for k in EXCLUSIVE) <= wall
    assert layers["config.load_s"] > 0.0 and layers["ensemble.csv_s"] > 0.0
    assert record.check(out) == []


def test_tracer_restores_every_wrapped_function():
    import importlib

    before = [getattr(importlib.import_module(m), a) for m, a, _ in LAYERS]
    with Tracer():
        pass
    assert [getattr(importlib.import_module(m), a) for m, a, _ in LAYERS] == before


def test_tracing_leaves_results_bit_identical():
    wl = short(workloads.ens_qubit_fb(seed=11), 0.01)
    plain = wl.run_batch([4, 9])
    with Tracer():
        traced = wl.run_batch([4, 9])
    for name in workloads.SERIES:
        assert np.array_equal(getattr(plain, name), getattr(traced, name))


@pytest.mark.parametrize("name, kernel, scale, stat", [
    ("ens_qubit_fb", "diffusion_term", 0.0, "final_purity"),
    ("ens_qutrit_open", "sme_drift", 0.0, "final_purity"),
    ("ens_qutrit_open", "measurement_increment", 0.5, "record_sq"),
])
def test_reference_bands_catch_a_mis_scaled_kernel(monkeypatch, name, kernel, scale, stat):
    import smestab.integrate as st_integrate

    real = getattr(st_integrate, kernel)
    monkeypatch.setattr(st_integrate, kernel, lambda *a: scale * real(*a))
    wl = workloads.BUILDERS[name](seed=6)
    assert any(f"mean {stat}" in d for d in wl.check(wl.run(0)))


def test_identity_check_catches_a_batch_dependent_result():
    wl = short(workloads.ens_qubit_fb(seed=2), 0.01)
    out = wl.run(0)
    wl.check_identity(out, np.random.default_rng(0))
    out.res.controls[:, -1] = np.nextafter(out.res.controls[:, -1], np.inf)
    with pytest.raises(workloads.IdentityError):
        wl.check_identity(out, np.random.default_rng(0))


def test_record_identity_check_passes(record):
    record.check_identity(record.run(2), np.random.default_rng(0))


def test_every_workload_has_a_calibration_kernel():
    import calibrate

    for build in workloads.BUILDERS.values():
        assert build(seed=1).shape in calibrate.PASSES


def test_tail_is_highest_percentile_with_ten_jobs_beyond():
    pct, value = run.tail([float(i) for i in range(40)])
    assert (pct, value) == (75.0, 29.0)
    assert sum(1 for w in range(40) if w > value) == 10


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer_names = set(EXCLUSIVE) | {"hermitian.clip_ratio", "trace.job_s", "trace.overhead_frac"}
    from tracing import COUNTS

    layer_names |= set(COUNTS)
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    for m in spec["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sse_n8", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
