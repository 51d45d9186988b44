"""Ensemble reduction, outcome counting, and CSV emission."""
import csv

import numpy as np
import pytest

from conftest import qubit
from smestab import (
    ControllerSpec,
    EnsembleConfig,
    EnsembleError,
    SimConfig,
    levelset_table,
    run_ensemble,
    simulate,
)
from smestab.ensemble import (
    _count_supermartingale_violations,
    reduce_batch,
    write_levelset_csv,
    write_mean_curves_csv,
    write_summary_csv,
    write_trajectory_csv,
)
from smestab.integrate import BatchResult


def synthetic_batch(n_rejected, final_states, n_steps=1000, n_rec=5):
    b = len(final_states)
    times = np.linspace(0.0, 1.0, n_rec)
    flat = np.zeros((b, n_rec))
    return BatchResult(
        indices=list(range(b)),
        times=times,
        controls=flat.copy(),
        records=flat.copy(),
        v1=flat.copy(),
        v2=flat.copy(),
        v_tilde=np.linspace(1.0, 0.5, n_rec)[None, :].repeat(b, axis=0),
        lv=flat.copy(),
        l0=flat.copy(),
        lb=flat.copy(),
        third=flat.copy(),
        fidelity=flat.copy(),
        purity=np.ones((b, n_rec)),
        final_states=np.stack(final_states),
        n_steps=n_steps,
        n_projected=np.zeros(b, dtype=int),
        n_rejected=np.asarray(n_rejected),
    )


def test_ensemble_config_validation():
    model, target = qubit()
    sim = SimConfig(dt=1e-3, t_final=1.0, seed=1)
    ctrl = ControllerSpec(kind="open_loop")
    with pytest.raises(ValueError, match="n_trajectories"):
        EnsembleConfig(0, model, target, ctrl, sim, np.eye(2, dtype=complex) / 2)
    with pytest.raises(ValueError, match="shape"):
        EnsembleConfig(1, model, target, ctrl, sim, np.eye(3, dtype=complex) / 3)
    with pytest.raises(ValueError, match="rho0"):
        EnsembleConfig(1, model, target, ctrl, sim, 2.0 * np.eye(2, dtype=complex))


def test_reduce_batch_counts_and_stderr():
    model, target = qubit()
    sim = SimConfig(dt=1e-3, t_final=1.0, seed=1)
    up = np.diag([1.0, 0.0]).astype(complex)
    down = np.diag([0.0, 1.0]).astype(complex)
    mixed = np.eye(2, dtype=complex) / 2
    finals = [up] * 6 + [down] * 3 + [mixed]
    stats = reduce_batch(synthetic_batch(np.zeros(10, dtype=int), finals), target, sim)
    assert stats.n_valid == 10
    assert stats.outcome_counts == {
        "converged_target": 6,
        "converged_antipodal(0)": 3,
        "undetermined": 1,
    }
    assert stats.target_frequency == pytest.approx(0.6)
    assert stats.target_frequency_stderr == pytest.approx(np.sqrt(0.6 * 0.4 / 10))
    assert stats.supermartingale_violations == 0


def test_reduce_batch_excludes_over_budget_trajectories():
    model, target = qubit()
    sim = SimConfig(dt=1e-3, t_final=1.0, seed=1)
    up = np.diag([1.0, 0.0]).astype(complex)
    finals = [up] * 200
    rejected = np.zeros(200, dtype=int)
    rejected[7] = 5  # budget at n_steps = 1000 is 1 step
    stats = reduce_batch(synthetic_batch(rejected, finals), target, sim)
    assert stats.excluded_indices == [7]
    assert stats.n_valid == 199
    assert stats.target_frequency == 1.0


def test_reduce_batch_raises_beyond_invalid_budget():
    model, target = qubit()
    sim = SimConfig(dt=1e-3, t_final=1.0, seed=1)
    up = np.diag([1.0, 0.0]).astype(complex)
    finals = [up] * 100
    rejected = np.zeros(100, dtype=int)
    rejected[:2] = 10  # 2 of 100 over a 1 percent budget
    with pytest.raises(EnsembleError, match="budget"):
        reduce_batch(synthetic_batch(rejected, finals), target, sim)


def test_supermartingale_counter():
    rng = np.random.default_rng(90)
    base = np.linspace(1.0, 0.5, 6)[None, :].repeat(100, axis=0)
    vt = base + rng.normal(0.0, 1e-6, size=base.shape)
    assert _count_supermartingale_violations(vt) == 0
    vt_up = vt.copy()
    vt_up[:, 3:] += 0.5  # one coherent up-move across the ensemble
    assert _count_supermartingale_violations(vt_up) == 1
    assert _count_supermartingale_violations(vt[:1]) == 0


def test_run_ensemble_smoke():
    model, target = qubit(mu=1.0, eta=0.5)
    cfg = EnsembleConfig(
        n_trajectories=20,
        model=model,
        target=target,
        controller=ControllerSpec(kind="square_of_sum", k=1.0, ell=1.0),
        sim=SimConfig(dt=1e-3, t_final=2.0, seed=33, record_stride=100),
        rho0=np.eye(2, dtype=complex) / 2,
    )
    stats = run_ensemble(cfg)
    assert stats.n_valid == 20
    assert sum(stats.outcome_counts.values()) == 20
    assert 0.0 <= stats.target_frequency <= 1.0
    assert stats.mean_v_tilde.shape == stats.times.shape


def test_csv_writers_round_trip(tmp_path):
    model, target = qubit(mu=1.0, eta=0.5)
    sim = SimConfig(dt=1e-3, t_final=0.2, seed=3, record_stride=20)
    traj = simulate(
        np.eye(2, dtype=complex) / 2, model, target,
        ControllerSpec(kind="square_of_sum"), sim,
    )
    p = tmp_path / "trajectory_0.csv"
    write_trajectory_csv(p, traj)
    with open(p, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(traj.times)
    assert float(rows[0]["v_tilde"]) == pytest.approx(1.5, abs=1e-12)
    assert float(rows[-1]["t"]) == pytest.approx(0.2)

    cfg = EnsembleConfig(
        n_trajectories=10, model=model, target=target,
        controller=ControllerSpec(kind="square_of_sum"), sim=sim,
        rho0=np.eye(2, dtype=complex) / 2,
    )
    stats = run_ensemble(cfg)
    write_summary_csv(tmp_path / "summary.csv", stats)
    with open(tmp_path / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["outcome"] for r in rows] == [
        "converged_target", "converged_antipodal(0)", "undetermined",
    ]
    assert sum(int(r["count"]) for r in rows) == 10

    write_mean_curves_csv(tmp_path / "mean.csv", stats)
    with open(tmp_path / "mean.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(stats.times)
    assert float(rows[0]["mean_vtilde"]) == pytest.approx(1.5, abs=1e-12)

    tab = levelset_table(1.0, 1.0, 1.0, 0.5, resolution=21)
    write_levelset_csv(tmp_path / "level.csv", tab)
    with open(tmp_path / "level.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 21 * 21
    assert {r["physical"] for r in rows} <= {"0", "1"}
