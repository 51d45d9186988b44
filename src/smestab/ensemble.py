"""Ensemble reduction: outcome frequencies, mean certificates, CSV emission.

Reduction runs in trajectory-index order, so identical configurations give
byte-identical outputs at any batch size.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import ModelSpec, TargetSpec
from .hermitian import validate_density
from .integrate import (
    BatchResult,
    SimConfig,
    Trajectory,
    _classify,
    _outcome_labels,
    check_representation,
    run_batch,
)
from .lyapunov import ControllerSpec
from .params import as_integer

# the roundoff floor of _count_supermartingale_violations, in ulps
ROUNDOFF_ULPS = 64


class EnsembleError(RuntimeError):
    """Raised by nothing, as a bad step raises IntegrationError; bench/run.py imports it."""


@dataclass(frozen=True, eq=False)
class EnsembleConfig:
    """Everything needed to reproduce one ensemble run; ValueError on a bad count or rho0."""

    n_trajectories: int
    model: ModelSpec
    target: TargetSpec
    controller: ControllerSpec
    sim: SimConfig
    rho0: np.ndarray
    output_dir: str | None = None

    def __post_init__(self):
        n_traj = as_integer(self.n_trajectories, "n_trajectories")
        object.__setattr__(self, "n_trajectories", n_traj)
        if self.n_trajectories < 1:
            raise ValueError(f"n_trajectories must be an integer >= 1, got {self.n_trajectories!r}")
        rho0 = np.asarray(self.rho0, dtype=complex)
        object.__setattr__(self, "rho0", rho0)
        if rho0.shape != (self.model.n, self.model.n):
            raise ValueError(f"rho0 shape {rho0.shape} does not match model dimension")
        validate_density(rho0, name="rho0")
        check_representation(self.model, rho0, self.sim.representation)


@dataclass
class EnsembleStats:
    """Reduced ensemble observables; the mean_* curves are at times."""

    n_trajectories: int
    outcome_counts: dict[str, int]
    target_frequency: float
    target_frequency_stderr: float
    times: np.ndarray
    mean_v1: np.ndarray
    mean_v2: np.ndarray
    mean_v_tilde: np.ndarray
    mean_purity: np.ndarray
    mean_fidelity: np.ndarray
    supermartingale_violations: int
    # every trajectory counts; acceptance criteria 6 and 7 read it
    n_valid = property(lambda self: self.n_trajectories)
    # always empty, as no trajectory is excluded; bench/workloads.py reads it
    excluded_indices = property(lambda self: [])


def _count_supermartingale_violations(vt: np.ndarray) -> int:
    """Record intervals where the mean increment of Vt (B, n_recorded) moves up.

    It must exceed 3 standard errors, a one-sided test that fires with
    probability 0.135% per interval at zero drift, and ROUNDOFF_ULPS eps
    max(1, max |Vt| over the two slots): at rest on an eigenstate Vt is 0 (1
    at an antipode) only to roundoff, a difference of moments of that order,
    whose increments of a few ulps have a spread smaller still.
    """
    if vt.shape[0] < 2:
        return 0
    inc = np.diff(vt, axis=1)
    mean = inc.mean(axis=0)
    se = inc.std(axis=0, ddof=1) / np.sqrt(vt.shape[0])
    scale = np.maximum(1.0, np.abs(vt).max(axis=0))
    floor = ROUNDOFF_ULPS * np.finfo(float).eps * np.maximum(scale[:-1], scale[1:])
    return int(np.sum((mean > 3.0 * se) & (mean > floor)))


def reduce_batch(res: BatchResult, target: TargetSpec, sim: SimConfig) -> EnsembleStats:
    """Classify every trajectory and average the certificates; sim is not read."""
    b = len(res.indices)
    counts = {label: 0 for label in _outcome_labels(target)}
    for o in _classify(res.final_states, target):
        counts[o] += 1
    freq = counts["converged_target"] / b
    stderr = float(np.sqrt(freq * (1.0 - freq) / b))
    return EnsembleStats(
        n_trajectories=b,
        outcome_counts=counts,
        target_frequency=freq,
        target_frequency_stderr=stderr,
        times=res.times.copy(),
        mean_v1=res.v1.mean(axis=0),
        mean_v2=res.v2.mean(axis=0),
        mean_v_tilde=res.v_tilde.mean(axis=0),
        mean_purity=res.purity.mean(axis=0),
        mean_fidelity=res.fidelity.mean(axis=0),
        supermartingale_violations=_count_supermartingale_violations(res.v_tilde),
    )


def run_ensemble(cfg: EnsembleConfig) -> EnsembleStats:
    """Integrate the configured ensemble and reduce it."""
    res = run_batch(
        cfg.rho0,
        cfg.model,
        cfg.target,
        cfg.controller,
        cfg.sim,
        n_trajectories=cfg.n_trajectories,
        record_states=False,
    )
    return reduce_batch(res, cfg.target, cfg.sim)


def _write_columns(path: str | Path, header: list[str], columns: list) -> None:
    """Header row, then row j holds entry j of every column in %.17g; rows end in \r\n."""
    row = ",".join(["%.17g"] * len(columns)) + "\r\n"
    values = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row % v for v in values)


def write_trajectory_csv(path: str | Path, traj: Trajectory) -> None:
    """Columns t, u, dY, fidelity_target, purity, v1, v2, v_tilde, lv."""
    reps = traj.lyapunov
    _write_columns(
        path,
        ["t", "u", "dY", "fidelity_target", "purity", "v1", "v2", "v_tilde", "lv"],
        [
            traj.times,
            traj.controls,
            traj.records,
            traj.fidelity_target,
            traj.purity,
            [r.v1 for r in reps],
            [r.v2 for r in reps],
            [r.v_tilde for r in reps],
            [r.lv_closed_loop for r in reps],
        ],
    )


def write_summary_csv(path: str | Path, stats: EnsembleStats) -> None:
    """Columns outcome, count, frequency, stderr (binomial, per outcome)."""
    n = stats.n_trajectories
    with open(path, "w", newline="") as fh:
        fh.write("outcome,count,frequency,stderr\r\n")
        for label, count in stats.outcome_counts.items():
            f = count / n
            fh.write("%s,%d,%.17g,%.17g\r\n" % (label, count, f, np.sqrt(f * (1.0 - f) / n)))


def write_mean_curves_csv(path: str | Path, stats: EnsembleStats) -> None:
    """Columns t, mean_v1, mean_v2, mean_vtilde, mean_purity, mean_fidelity."""
    _write_columns(
        path,
        ["t", "mean_v1", "mean_v2", "mean_vtilde", "mean_purity", "mean_fidelity"],
        [
            stats.times,
            stats.mean_v1,
            stats.mean_v2,
            stats.mean_v_tilde,
            stats.mean_purity,
            stats.mean_fidelity,
        ],
    )


def write_levelset_csv(path: str | Path, table: dict[str, np.ndarray]) -> None:
    """Columns y, z, lv, physical."""
    header = ["y", "z", "lv", "physical"]
    _write_columns(path, header, [table[name] for name in header])
