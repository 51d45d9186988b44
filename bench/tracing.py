"""Per-layer tracing from outside the program.

The tracer swaps the module attributes that the integrator, the CLI and the
benchmark look functions up by for timed wrappers, so no file under src/
changes. Spans are aggregated in memory as they close: per metric the total
time, and for run_batch the self time (its span minus the spans of the calls
it made). Counts come from the values the calls return.
"""
from __future__ import annotations

import importlib
import os
from collections import defaultdict
from time import perf_counter

# (module, attribute the caller looks up, layer metric its time is charged to)
LAYERS = (
    ("smestab.integrate", "run_batch", "integrate.run_batch_s"),
    ("smestab.integrate", "feedback", "lyapunov.feedback_s"),
    ("smestab.integrate", "sme_drift", "dynamics.drift_s"),
    ("smestab.integrate", "diffusion_term", "dynamics.diffusion_s"),
    ("smestab.integrate", "measurement_increment", "dynamics.dy_s"),
    ("smestab.integrate", "sse_drift", "dynamics.sse_step_s"),
    ("smestab.integrate", "sse_diffusion", "dynamics.sse_step_s"),
    ("smestab.integrate", "hermitize", "hermitian.hermitize_s"),
    ("smestab.integrate", "min_eigenvalue", "hermitian.positivity_s"),
    ("smestab.integrate", "_record_point", "integrate.record_s"),
    ("smestab.integrate", "_substream", "integrate.noise_s"),
    ("smestab.ensemble", "reduce_batch", "ensemble.reduce_s"),
    ("smestab.cli", "load_config", "config.load_s"),
    ("smestab.cli", "write_trajectory_csv", "ensemble.csv_s"),
)

# Spans that do not overlap one another; their sum never exceeds a job's wall.
EXCLUSIVE = (
    "lyapunov.feedback_s", "dynamics.drift_s", "dynamics.diffusion_s", "dynamics.dy_s",
    "dynamics.sse_step_s", "hermitian.hermitize_s", "hermitian.positivity_s",
    "integrate.record_s", "integrate.noise_s", "integrate.self_s", "ensemble.reduce_s",
    "ensemble.csv_s", "config.load_s",
)

COUNTS = (
    "lyapunov.feedback_calls", "integrate.traj_steps", "integrate.record_points",
    "hermitian.clips", "hermitian.rejects", "ensemble.excluded", "ensemble.csv_bytes",
)


def _count_run_batch(args, kwargs, res):
    b = len(res.indices)
    return {
        "integrate.traj_steps": b * res.n_steps,
        "integrate.record_points": len(res.times),
        "hermitian.clips": int(res.n_projected.sum()),
        "hermitian.rejects": int(res.n_rejected.sum()),
    }


COUNTERS = {
    "run_batch": _count_run_batch,
    "feedback": lambda args, kwargs, out: {"lyapunov.feedback_calls": 1},
    "reduce_batch": lambda args, kwargs, stats: {"ensemble.excluded": len(stats.excluded_indices)},
    "write_trajectory_csv": lambda args, kwargs, out: {
        "ensemble.csv_bytes": os.path.getsize(args[0])
    },
}


class _TimedGenerator:
    """Stands in for a substream Generator so its normal draws are timed as noise."""

    def __init__(self, gen, tracer: "Tracer"):
        self.normal = tracer.wrap("integrate.noise_s", gen.normal)


class Tracer:
    """Totals of traced time and counts, kept while the wrappers are installed."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.run_batch_self = 0.0
        self._open = [0.0]  # time already covered by children, one entry per open span
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, metric: str, fn, counter=None):
        def traced(*args, **kwargs):
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                children = self._open.pop()
                self._open[-1] += elapsed
                self.seconds[metric] += elapsed
                if metric == "integrate.run_batch_s":
                    self.run_batch_self += elapsed - children
            if counter is not None:
                for name, n in counter(args, kwargs, out).items():
                    self.counts[name] += n
            return out

        return traced

    def __enter__(self) -> "Tracer":
        """Swap every function in LAYERS for its timed wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, metric in LAYERS:
            module = importlib.import_module(module_name)
            real = getattr(module, attr)
            self._saved.append((module, attr, real))
            if attr == "_substream":
                # construction is timed here, each later draw by the proxy
                real = lambda *a, _make=real: _TimedGenerator(_make(*a), self)  # noqa: E731
            setattr(module, attr, self.wrap(metric, real, COUNTERS.get(attr)))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, real in reversed(self._saved):
            setattr(module, attr, real)
        self._saved.clear()

    def metrics(self) -> dict[str, float]:
        """Every layer metric, times and counts, of the calls traced so far."""
        out = {name: self.seconds.get(name, 0.0) for name in EXCLUSIVE}
        out["integrate.self_s"] = self.run_batch_self
        for name in COUNTS:
            out[name] = self.counts.get(name, 0)
        steps = self.counts.get("integrate.traj_steps", 0)
        out["hermitian.clip_ratio"] = self.counts.get("hermitian.clips", 0) / steps if steps else 0.0
        return out
