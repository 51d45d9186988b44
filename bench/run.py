"""smestab benchmark: trajectory-step throughput on four integrator workloads.

Run from the repository root:

    python3 bench/run.py --workload ens_qubit_fb --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One process runs one workload, one job at a time (a closed loop with one
client), with BLAS and OpenMP pinned to one thread. `--trace 0` measures the
end-to-end metrics; `--trace 1` alternates untraced and traced jobs and
reports the per-layer split (see tracing.py) and the tracing overhead. Every
job's outputs are checked; a job that raises or fails a check counts as
failed without stopping the run. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

Every time reported is rescaled to a nominal machine speed (calibrate.py):
a shared host drifts by up to 1.7x between runs, and the rescaled times
drift by a few percent. The raw wall medians are printed beside them.
"""
from __future__ import annotations

import os

# before numpy is imported, here and in every process started from here
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("ens_qubit_fb", "ens_qutrit_open", "traj_record", "sse_n8")

# name -> unit, in the order printed
END_TO_END = {
    "traj_steps_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"_s": "s", "_frac": "fraction", "_ratio": "fraction"}
# A job's tail is the highest percentile with at least this many jobs beyond it.
TAIL_BEYOND = 10
MIN_JOBS = TAIL_BEYOND + 1
# fresh processes started per run to time set-up; the median is reported
SETUP_PROBES = 7


def import_program():
    """Put this checkout's src/ first on the path; exit 2 if it holds no smestab."""
    if not (SRC / "smestab" / "__init__.py").is_file():
        print(f"error: no smestab sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import smestab

    if Path(smestab.__file__).resolve().parent != SRC / "smestab":
        print(f"error: smestab imported from {smestab.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def tail(walls: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest rank with TAIL_BEYOND jobs above it."""
    ordered = sorted(walls)
    rank = len(ordered) - TAIL_BEYOND
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def provenance() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
        "src_sha256": src_digest(),
    }


def src_digest() -> str:
    """Hash of the program's sources, which names the code when there is no .git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "smestab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(raw, rescaled) seconds from process start until the workload's specs are built."""
    import workloads
    from calibrate import Calibrated

    cal = Calibrated(*workloads.BUILDERS[workload](seed).shape)
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        raw = float(done.stdout.split()[-1]) - t0
        times.append((raw, cal.rescale(raw)))
    return times


def probe_setup(workload: str, seed: int) -> None:
    import_program()
    import workloads

    workloads.BUILDERS[workload](seed)
    print(repr(time.monotonic()))


class Run:
    """One workload in this process: its jobs, their checks and their times."""

    def __init__(self, name: str, seed: int, out_dir: Path):
        import numpy as np
        import workloads
        from calibrate import Calibrated
        from smestab.ensemble import EnsembleError
        from smestab.integrate import IntegrationError

        self.errors = (IntegrationError, EnsembleError)
        self.wl = workloads.BUILDERS[name](seed)
        self.wl.out_dir = out_dir
        self.rng = np.random.default_rng(seed)
        self.cal = Calibrated(*self.wl.shape)
        self.attempted = 0
        self.failed = 0
        self.defects: list[str] = []
        self.next_job = 0

    def job(self, tracer=None) -> tuple[float, float, object]:
        """Run, time and check the next job: (raw wall, rescaled wall, output or None)."""
        j = self.next_job
        self.next_job += 1
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with tracer or contextlib.nullcontext():
                out = self.wl.run(j)
        except self.errors as exc:
            out = None
            self.fail(j, [f"{type(exc).__name__}: {exc}"])
        wall = time.perf_counter() - t0
        scaled = self.cal.rescale(wall)
        if out is not None:
            defects = self.wl.check(out)
            if defects:
                self.fail(j, defects)
        return wall, scaled, out

    def fail(self, j: int, defects: list[str]) -> None:
        self.failed += 1
        self.defects += [f"job {j}: {d}" for d in defects]

    def warm_up(self) -> bool:
        """First job, untimed; its index is re-run alone to check batch independence."""
        import workloads

        out = self.job()[2]
        if out is None:
            return False
        try:
            self.wl.check_identity(out, self.rng)
        except workloads.IdentityError as exc:
            self.defects.append(str(exc))
            return False
        return True


def run_untraced(run: Run, seconds: float) -> tuple[dict, str]:
    raw, scaled = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(scaled) < MIN_JOBS:
        wall, rescaled, _ = run.job()
        raw.append(wall)
        scaled.append(rescaled)
    pct, tail_s = tail(scaled)
    metrics = {
        "traj_steps_per_s": run.wl.traj_steps_per_job * len(scaled) / sum(scaled),
        "job_s_p50": statistics.median(scaled),
        "job_s_tail": tail_s,
    }
    return metrics, (f"job_s_tail is p{pct:.1f} of {len(scaled)} jobs; "
                     f"raw wall job_s_p50 {statistics.median(raw):.4g} s")


def run_traced(run: Run, seconds: float) -> tuple[dict, str]:
    from tracing import Tracer

    totals: dict[str, float] = {}
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < MIN_JOBS:
        plain.append(run.job()[1])
        tracer = Tracer()
        wall, scaled, _ = run.job(tracer)
        traced.append(scaled)
        for name, value in tracer.metrics().items():
            k = scaled / wall if per_layer_unit(name) == "s" else 1.0
            totals[name] = totals.get(name, 0.0) + value * k
    metrics = {name: total / len(traced) for name, total in totals.items()}
    metrics["trace.job_s"] = statistics.fmean(traced)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return metrics, f"{len(traced)} traced and {len(plain)} untraced jobs, interleaved"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = None if trace else measure_setup(name, seed)
    out_dir = Path(tempfile.mkdtemp(prefix=".bench_run-", dir=ROOT))
    try:
        run = Run(name, seed, out_dir)
        identical = run.warm_up()
        metrics, note = (run_traced if trace else run_untraced)(run, seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if setup is not None:
        metrics["setup_s"] = statistics.median(s for _, s in setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        note += (f"; setup_s is the median of {len(setup)} fresh processes, raw "
                 f"{statistics.median(r for r, _ in setup):.4g} s")
    units = END_TO_END if not trace else {k: per_layer_unit(k) for k in metrics}
    return {
        "workload": name,
        "note": note,
        "defects": run.defects,
        "result": {
            "correct": identical and run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
    }


def print_report(report: dict, prov: dict) -> None:
    res = report["result"]
    print(f"{report['workload']}: {res['attempted']} jobs, failed_frac "
          f"{res['failed'] / res['attempted']:.3g}, correct={res['correct']} ({report['note']})")
    print(f"  on {prov['nproc']} cores, {prov['cpu']}, Python {prov['python']}, numpy "
          f"{prov['numpy']}, {prov['blas']} x{prov['blas_threads']} threads, "
          f"commit {prov['commit']}, src sha256 {prov['src_sha256'][:12]}")
    for name, m in res["metrics"].items():
        print(f"  {name:<26} {m['value']:>14.6g} {m['unit']}")
    for d in report["defects"][:20]:
        print(f"  defect: {d}")


def run_all(args) -> dict:
    """Each workload in its own fresh process; metrics are keyed workload.metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=True,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, m in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = m
    return combined


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.probe_setup, args.seed)
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if not 0 <= args.seed < 2**64:
        p.error("--seed must fit in an unsigned 64-bit integer")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    import_program()
    if args.workload == "all":
        result = run_all(args)
    else:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_report(report, provenance())
        result = report["result"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
