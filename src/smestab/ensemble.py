"""Ensemble reduction: outcome frequencies, mean certificates, CSV emission.

Trajectories are integrated in lockstep (see integrate.run_batch) and reduced
in trajectory-index order, so identical configurations produce byte-identical
outputs regardless of batch size. A density step is elementwise arithmetic in
index order at every N, calls no BLAS or LAPACK and clips no row, so density
outputs do not depend on the host either; a steered ket step calls BLAS,
whose kernels differ by CPU. tests/test_host_independence.py runs a steered
qubit, an open-loop three-level and a steered spin-3/2 density batch from
the shipped configs under every OpenBLAS core type the CPU supports (of
Nehalem, Haswell and SkylakeX) and demands bit-identical final states and
controls, and a steered spin-3/2 ket batch, whose final states and controls
must agree within 1e-12, with the same outcomes.
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


class EnsembleError(RuntimeError):
    """Raised by nothing (a bad step raises IntegrationError); bench/run.py imports it."""


@dataclass(frozen=True, eq=False)
class EnsembleConfig:
    """Everything needed to reproduce one ensemble run."""

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
    """Reduced ensemble observables."""

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
    n_projected: int  # always 0, as no step clips; the CLI prints it
    n_steps: int  # per trajectory
    # every trajectory counts; acceptance criteria 6 and 7 read it
    n_valid = property(lambda self: self.n_trajectories)
    # always empty, as no trajectory is excluded; bench/workloads.py reads it
    excluded_indices = property(lambda self: [])


def _count_supermartingale_violations(vt: np.ndarray) -> int:
    """Mean-increment up-moves of Vt exceeding 3 standard errors.

    A one-sided 3-SE test per record interval, which fires with probability
    0.135% per interval at zero drift. Where L Vt <= 0 holds exactly it fired
    less often: 200 seeds of configs/qubit.json's model (100 trajectories,
    100 intervals) under square_of_sum (k = ell = 1) and under the open loop
    read 0 of 20,000 intervals and 0 of 200 runs per law (95% upper bounds
    1.5e-4 per interval and 1.5% per run).
    """
    if vt.shape[0] < 2:
        return 0
    inc = np.diff(vt, axis=1)
    mean = inc.mean(axis=0)
    se = inc.std(axis=0, ddof=1) / np.sqrt(vt.shape[0])
    return int(np.sum(mean > 3.0 * se))


def reduce_batch(res: BatchResult, target: TargetSpec, sim: SimConfig) -> EnsembleStats:
    """Classify every trajectory and average the certificates.

    sim is not read: outcomes use integrate.CONVERGENCE_FIDELITY.
    """
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
        n_projected=int(res.n_projected.sum()),
        n_steps=res.n_steps,
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
    """Header row, then row j holds entry j of every column in %.17g.

    The header names need no CSV quoting; rows end in \r\n, as csv.writer's do.
    """
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
