"""Ensemble reduction, outcome counting, and CSV emission."""
import csv
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import qubit
from smestab import (
    ControllerSpec,
    EnsembleConfig,
    SimConfig,
    levelset_table,
    run_ensemble,
    simulate,
)
from smestab.ensemble import (
    _count_supermartingale_violations,
    _write_columns,
    reduce_batch,
    write_levelset_csv,
    write_mean_curves_csv,
    write_summary_csv,
    write_trajectory_csv,
)
from smestab.config import load_config
from smestab.integrate import BatchResult, run_batch

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def synthetic_batch(final_states, n_steps=1000, n_rec=5):
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
    )


def test_ensemble_config_validation():
    model, target = qubit()
    sim = SimConfig(dt=1e-3, t_final=1.0, seed=1)
    ctrl = ControllerSpec(kind="open_loop")
    for n_traj in (0, 2.5, True, np.inf):
        with pytest.raises(ValueError, match="n_trajectories"):
            EnsembleConfig(n_traj, model, target, ctrl, sim, np.eye(2, dtype=complex) / 2)
    cfg = EnsembleConfig(2.0, model, target, ctrl, sim, np.eye(2, dtype=complex) / 2)
    assert type(cfg.n_trajectories) is int and cfg.n_trajectories == 2
    with pytest.raises(ValueError, match="shape"):
        EnsembleConfig(1, model, target, ctrl, sim, np.eye(3, dtype=complex) / 3)
    with pytest.raises(ValueError, match="rho0"):
        EnsembleConfig(1, model, target, ctrl, sim, 2.0 * np.eye(2, dtype=complex))


def test_reduce_batch_counts_and_stderr(tmp_path):
    model, target = qubit()
    sim = SimConfig(dt=1e-3, t_final=1.0, seed=1)
    up = np.diag([1.0, 0.0]).astype(complex)
    down = np.diag([0.0, 1.0]).astype(complex)
    mixed = np.eye(2, dtype=complex) / 2
    finals = [up] * 6 + [down] * 3 + [mixed]
    stats = reduce_batch(synthetic_batch(finals), target, sim)
    assert stats.n_valid == 10
    assert stats.outcome_counts == {
        "converged_target": 6,
        "converged_antipodal(0)": 3,
        "undetermined": 1,
    }
    assert stats.target_frequency == pytest.approx(0.6)
    assert stats.target_frequency_stderr == pytest.approx(np.sqrt(0.6 * 0.4 / 10))
    assert stats.supermartingale_violations == 0
    # the summary file is byte for byte what csv.writer over format(x, ".17g") rendered
    write_summary_csv(tmp_path / "summary.csv", stats)
    with open(tmp_path / "expected.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["outcome", "count", "frequency", "stderr"])
        for label, count in stats.outcome_counts.items():
            f = count / 10
            w.writerow([label, count, format(f, ".17g"), format(np.sqrt(f * (1 - f) / 10), ".17g")])
    assert (tmp_path / "summary.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_supermartingale_counter():
    rng = np.random.default_rng(90)
    base = np.linspace(1.0, 0.5, 6)[None, :].repeat(100, axis=0)
    vt = base + rng.normal(0.0, 1e-6, size=base.shape)
    assert _count_supermartingale_violations(vt) == 0
    vt_up = vt.copy()
    vt_up[:, 3:] += 0.5  # one coherent up-move across the ensemble
    assert _count_supermartingale_violations(vt_up) == 1
    assert _count_supermartingale_violations(vt[:1]) == 0
    # an ensemble at rest on an eigenstate: Vt is 0 or 1 to roundoff, and a
    # coherent up-move of a few ulps is roundoff, not drift
    for level in (0.0, 1.0):
        at_rest = level + rng.normal(0.0, 1e-17, size=(10, 6))
        at_rest[:, 3:] += 4.0 * np.spacing(max(level, 1.0))
        assert _count_supermartingale_violations(at_rest) == 0
    # a coherent up-move of 1e-11 under 1e-13 noise is far above the floor
    small = rng.normal(0.0, 1e-13, size=(100, 6))
    small[:, 3:] += 1e-11
    assert _count_supermartingale_violations(small) == 1


@pytest.mark.parametrize("name", ["qubit", "three_level"])
def test_an_ensemble_at_rest_on_an_eigenstate_counts_no_violation(name):
    # started at the target or at an antipode a path stays there under its
    # config's law, so Vt is constant to roundoff, and no interval may count.
    # One batch holds both ensembles of 10 paths: indices 0..9 twice, the
    # first ten from the target; each row is what it would be alone
    cfg = load_config(CONFIGS / f"{name}.json")
    rho0 = np.stack([cfg.target.rho_d] * 10 + [cfg.target.antipodal[0]] * 10)
    for seed in range(10):
        sim = replace(cfg.sim, t_final=1.0, record_stride=10, seed=seed)
        res = run_batch(rho0, cfg.model, cfg.target, cfg.controller, sim, list(range(10)) * 2)
        for start in (res.v_tilde[:10], res.v_tilde[10:]):
            assert _count_supermartingale_violations(start) == 0, (seed, start[0, 0])


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


def test_column_writer_bytes_equal_a_csv_writer_rendering(tmp_path):
    # the rendering the writer replaced: csv.writer over format(x, ".17g") per value
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, -1e300, 0.1, 1.0 / 3.0]
    columns = [rng.normal(size=1001) * 10.0 ** rng.integers(-20, 20, 1001) for _ in range(8)]
    columns[0][: len(special)] = special
    columns.append(rng.random(1001) < 0.5)  # a boolean column, as in write_levelset_csv
    header = [f"c{j}" for j in range(len(columns))]
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([format(float(x), ".17g") for x in row] for row in zip(*columns))
    got = tmp_path / "got.csv"
    _write_columns(got, header, [c.tolist() if j % 2 else c for j, c in enumerate(columns)])
    assert got.read_bytes() == expected.read_bytes()
