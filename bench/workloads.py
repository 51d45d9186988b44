"""The benchmark's four workloads: inputs built from a seed, one job, its checks.

Every workload uses dt = 1e-3 and mu = 1. The seed given on the command line
becomes SimConfig.seed; job j of a run integrates the trajectory indices
[j B, (j + 1) B), so successive jobs see fresh noise and the program only ever
receives the generated inputs.

Why these four (each stresses a different layer of the step loop):

- ens_qubit_fb: N = 2, B = 1000, square_of_sum k = ell = 1. The dense drift,
  feedback and diffusion matmuls do almost all the work; the 2x2 positivity
  radical is nearly free.
- ens_qutrit_open: N = 3, B = 1000, open loop from a coherent start. The
  per-step eigvalsh positivity check is a large share; feedback is idle. From
  the diagonal I/3 start the states would stay diagonal and the check would
  shrink, so the start must be coherent.
- traj_record: N = 3, B = 1, one CLI `simulate` call per job recording every
  step with states. Per-step Python overhead and the record-point
  certificates dominate; batch vectorisation buys nothing.
- sse_n8: N = 8, eta = 1, state-vector representation, B = 100. The only
  workload on the dynamics.sse_* kernels and the only N = 8 point.

The horizons are short (100 steps for the B = 1000 ensembles) so that a run
holds tens of jobs: enough for a tail with ten jobs beyond it, and enough
for the median to settle on a shared host.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import smestab.cli as st_cli
import smestab.config as st_config
import smestab.ensemble as st_ensemble
import smestab.integrate as st_integrate
from smestab.dynamics import ModelSpec, TargetSpec
from smestab.hermitian import dag, expectation, min_eigenvalue, trace
from smestab.hermitian import EIG_FLOOR, HERMITICITY_TOL, TRACE_TOL
from smestab.lyapunov import ControllerSpec

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

DT = 1e-3
MU = 1.0
# Square completion makes L Vt = -(...)^2 exactly; 1e-10 absorbs roundoff only.
LV_TOL = 1e-10
PURITY_TOL = 1e-9
# Statistical bands are this many combined standard errors wide. At 5 SE a
# correct program fails a band with probability below 1e-6 per check.
BAND_SE = 5.0

SERIES = (
    "controls", "records", "v1", "v2", "v_tilde", "lv", "l0", "lb", "third",
    "fidelity", "purity",
)

# Per-trajectory statistics whose ensemble means are checked against
# reference.json. Over a 100-step horizon each moves at first order with a
# kernel the cone and martingale checks cannot see fail: purity with
# diffusion_term and sme_drift (skip both and the state stays at its start),
# the squared record windows with measurement_increment. The record window
# at slot 0 is empty, so it is left out.
STATISTICS = {
    "final_fidelity": lambda res: res.fidelity[:, -1],
    "final_purity": lambda res: res.purity[:, -1],
    "record_sq": lambda res: np.mean(res.records[:, 1:] ** 2, axis=1),
}


class IdentityError(Exception):
    """A trajectory run alone differs from the same index inside a batch."""


def density_defects(states: np.ndarray) -> list[str]:
    """Why a stack of (..., N, N) states is not on the density cone; [] if it is."""
    states = np.asarray(states)
    defects = []
    herm = float(np.max(np.abs(states - dag(states))))
    if not herm <= HERMITICITY_TOL:
        defects.append(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
    tr = float(np.max(np.abs(trace(states).real - 1.0)))
    if not tr <= TRACE_TOL:
        defects.append(f"trace off by {tr:.3e} (tolerance {TRACE_TOL})")
    # the eigenvalues of the Hermitian part, so a non-Hermitian state is
    # reported once, for what it is
    lam = float(np.min(min_eigenvalue(0.5 * (states + dag(states)))))
    if not lam >= EIG_FLOOR:
        defects.append(f"min eigenvalue {lam:.3e} below floor {EIG_FLOOR}")
    return defects


def series_defects(res: st_integrate.BatchResult) -> list[str]:
    """Names of recorded series holding a non-finite value."""
    return [
        f"non-finite {name}" for name in SERIES if not np.all(np.isfinite(getattr(res, name)))
    ]


def lv_defects(lv: np.ndarray) -> list[str]:
    worst = float(np.max(lv))
    return [] if worst <= LV_TOL else [f"square completion broken: max lv = {worst:.3e}"]


def band_defect(what: str, value: float, expected: float, se: float) -> list[str]:
    """[] if value lies within BAND_SE standard errors se of expected."""
    if abs(value - expected) <= BAND_SE * se:
        return []
    return [f"{what} = {value:.6f}, expected {expected:.6f} within {BAND_SE:g} SE = {BAND_SE * se:.2e}"]


def mean_and_se(x: np.ndarray) -> tuple[float, float]:
    """Mean and its standard error."""
    return float(np.mean(x)), float(np.std(x, ddof=1) / np.sqrt(len(x)))


def load_reference(name: str) -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[name]


@dataclass
class JobResult:
    """What one job handed back: the batch, its reduction and any written file."""

    res: st_integrate.BatchResult | None = None
    stats: st_ensemble.EnsembleStats | None = None
    traj: st_integrate.Trajectory | None = None
    csv_path: Path | None = None


class EnsembleWorkload:
    """run_batch over B trajectories followed by reduce_batch, called in process."""

    out_dir = None  # ensemble jobs write no files

    def __init__(self, name, model, target, ctrl, sim, rho0, batch, *, square, supermartingale,
                 born, pure, banded):
        self.name = name
        self.model = model
        self.target = target
        self.ctrl = ctrl
        self.sim = sim
        self.rho0 = rho0
        self.batch = batch
        self.square = square
        self.supermartingale = supermartingale
        self.born = born
        self.pure = pure
        self.banded = banded  # names in STATISTICS checked against the reference
        self.reference = load_reference(name)

    @property
    def traj_steps_per_job(self) -> int:
        return self.batch * self.sim.n_steps

    @property
    def shape(self) -> tuple[int, int]:
        """(batch, dimension) of the state stack a job advances."""
        return self.batch, self.model.n

    def indices(self, job: int) -> list[int]:
        return list(range(job * self.batch, (job + 1) * self.batch))

    def run_batch(self, indices: list[int]) -> st_integrate.BatchResult:
        # looked up on the module at call time, so the tracer's wrappers apply
        return st_integrate.run_batch(
            self.rho0, self.model, self.target, self.ctrl, self.sim, indices=indices
        )

    def run(self, job: int) -> JobResult:
        res = self.run_batch(self.indices(job))
        stats = st_ensemble.reduce_batch(res, self.target, self.sim)
        return JobResult(res=res, stats=stats)

    def check(self, out: JobResult) -> list[str]:
        res, stats = out.res, out.stats
        defects = density_defects(res.final_states) + series_defects(res)
        if stats.excluded_indices:
            defects.append(f"{len(stats.excluded_indices)} trajectories excluded")
        if self.square:
            defects += lv_defects(res.lv)
        if self.supermartingale and stats.supermartingale_violations:
            defects.append(f"{stats.supermartingale_violations} supermartingale violations")
        if self.pure:
            worst = float(np.max(np.abs(res.purity - 1.0)))
            if not worst <= PURITY_TOL:
                defects.append(f"purity off by {worst:.3e} on the state-vector path")
        if self.born:
            # open loop: every population tr(P_j rho) of C's eigenprojectors is a
            # martingale, so its ensemble mean stays at tr(P_j rho0)
            for j, p in enumerate([self.target.rho_d, *self.target.antipodal]):
                m, se = mean_and_se(expectation(p, res.final_states))
                defects += band_defect(
                    f"mean population {j}", m, float(expectation(p, self.rho0)), se
                )
        ref = self.reference
        if ref["t_final"] != self.sim.t_final:
            return defects + [f"reference captured at t = {ref['t_final']}, not {self.sim.t_final}"]
        for stat in self.banded:
            # the reference's per-trajectory spread, not the job's own, sets the
            # band: a skewed statistic's sample spread moves with its mean
            sd = ref[stat]["sd"]
            se = sd * np.sqrt(1.0 / len(res.indices) + 1.0 / ref["trajectories"])
            m = float(np.mean(STATISTICS[stat](res)))
            defects += band_defect(f"mean {stat}", m, ref[stat]["mean"], se)
        return defects

    def check_identity(self, out: JobResult, rng: np.random.Generator) -> None:
        """Re-run one index of a finished job alone and demand bit-identical output."""
        row = int(rng.integers(len(out.res.indices)))
        solo = self.run_batch([out.res.indices[row]])
        for name in SERIES:
            if not np.array_equal(getattr(solo, name)[0], getattr(out.res, name)[row]):
                raise IdentityError(f"{self.name}: {name} of index {out.res.indices[row]} "
                                    "differs between solo and batch runs")
        if not np.array_equal(solo.final_states[0], out.res.final_states[row]):
            raise IdentityError(f"{self.name}: final state differs between solo and batch runs")


class RecordWorkload:
    """One in-process `smestab simulate` call per job, every step recorded."""

    config_path = BENCH_DIR / "configs" / "traj_record.json"

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.out_dir = None  # where jobs write their CSVs; set before the first job
        self.reference = load_reference(name)
        cfg = st_config.load_config(self.config_path)
        self.cfg = replace(cfg, sim=replace(cfg.sim, seed=seed))
        self.sim = self.cfg.sim

    @property
    def traj_steps_per_job(self) -> int:
        return self.sim.n_steps

    @property
    def shape(self) -> tuple[int, int]:
        return 1, self.cfg.model.n

    def run(self, job: int) -> JobResult:
        argv = ["simulate", "--config", str(self.config_path), "--seed", str(self.seed),
                "--out", str(self.out_dir), "--trajectory-index", str(job)]
        # keep the Trajectory the CLI hands to its CSV writer, for the checks
        captured = []
        real = st_cli.simulate

        def simulate(*args, **kwargs):
            captured.append(real(*args, **kwargs))
            return captured[-1]

        st_cli.simulate = simulate
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = st_cli.main(argv)
        finally:
            st_cli.simulate = real
        if code != st_cli.EXIT_OK:
            raise st_integrate.IntegrationError(f"simulate exited with code {code}")
        return JobResult(traj=captured[0], csv_path=Path(self.out_dir) / f"trajectory_{job}.csv")

    def check(self, out: JobResult) -> list[str]:
        traj = out.traj
        defects = density_defects(traj.states[-1])
        for name, series in (("controls", traj.controls), ("records", traj.records),
                             ("fidelity", traj.fidelity_target), ("purity", traj.purity)):
            if not np.all(np.isfinite(series)):
                defects.append(f"non-finite {name}")
        lv = np.array([rep.lv_closed_loop for rep in traj.lyapunov])
        if not np.all(np.isfinite(lv)):
            defects.append("non-finite lv")
        defects += lv_defects(lv)
        with open(out.csv_path, newline="") as fh:
            rows = len(list(csv.reader(fh))) - 1
        expected = self.reference["rows"]
        if not rows == len(traj.times) == expected:
            defects.append(f"CSV holds {rows} rows for {len(traj.times)} record points, "
                           f"reference {expected}")
        return defects

    def check_identity(self, out: JobResult, rng: np.random.Generator) -> None:
        """The CLI's trajectory must equal the same index inside a three-trajectory batch."""
        traj = out.traj
        i = traj.trajectory_index
        batch = st_integrate.run_batch(
            self.cfg.rho0, self.cfg.model, self.cfg.target, self.cfg.controller, self.sim,
            indices=[i + 1, i, i + 2], record_states=True,
        )
        pairs = (("controls", traj.controls), ("records", traj.records),
                 ("fidelity", traj.fidelity_target), ("purity", traj.purity))
        for name, series in pairs:
            if not np.array_equal(getattr(batch, name)[1], series):
                raise IdentityError(f"{self.name}: {name} of index {i} differs inside a batch")
        if not np.array_equal(batch.states[1], np.asarray(traj.states)):
            raise IdentityError(f"{self.name}: states of index {i} differ inside a batch")


def _from_config(name: str, **model_changes):
    cfg = st_config.load_config(ROOT / "configs" / name)
    model = replace(cfg.model, mu=MU, **model_changes)
    return cfg, model, TargetSpec.for_model(model, cfg.target.rho_d)


def ens_qubit_fb(seed: int) -> EnsembleWorkload:
    cfg, model, target = _from_config("qubit.json", eta=0.5)
    return EnsembleWorkload(
        "ens_qubit_fb", model, target,
        ControllerSpec(kind="square_of_sum", k=1.0, ell=1.0),
        st_integrate.SimConfig(dt=DT, t_final=0.1, seed=seed, record_stride=200),
        cfg.rho0, 1000, square=True, supermartingale=True, born=False, pure=False,
        banded=("final_fidelity", "final_purity", "record_sq"),
    )


def ens_qutrit_open(seed: int) -> EnsembleWorkload:
    cfg, model, target = _from_config("three_level.json", eta=0.5)
    plus = np.full((3, 3), 1.0 / 3.0, dtype=complex)
    rho0 = 0.9 * plus + 0.1 * np.eye(3, dtype=complex) / 3.0
    return EnsembleWorkload(
        "ens_qutrit_open", model, target, ControllerSpec(kind="open_loop"),
        st_integrate.SimConfig(dt=DT, t_final=0.1, seed=seed, record_stride=200),
        rho0, 1000, square=False, supermartingale=False, born=True, pure=False,
        # final fidelity is the Born check's population of rho_d
        banded=("final_purity", "record_sq"),
    )


def sse_n8(seed: int) -> EnsembleWorkload:
    n = 8
    c = np.diag(np.linspace(1.0, -1.0, n)).astype(complex)
    h_a = np.diag(np.arange(n, dtype=float)).astype(complex)
    h_b = (np.ones((n, n)) - np.eye(n)).astype(complex)
    model = ModelSpec(h_a=h_a, h_b=h_b, c=c, mu=MU, eta=1.0)
    rho_d = np.zeros((n, n), dtype=complex)
    rho_d[0, 0] = 1.0
    target = TargetSpec.for_model(model, rho_d)
    rho0 = np.full((n, n), 1.0 / n, dtype=complex)
    return EnsembleWorkload(
        "sse_n8", model, target, ControllerSpec(kind="square_of_sum", k=1.0, ell=1.0),
        st_integrate.SimConfig(dt=DT, t_final=0.8, seed=seed, record_stride=200,
                               representation="sse"),
        rho0, 100, square=True, supermartingale=False, born=False, pure=True,
        # purity is 1 on the state-vector path, checked by pure=True
        banded=("final_fidelity", "record_sq"),
    )


def traj_record(seed: int) -> RecordWorkload:
    return RecordWorkload("traj_record", seed)


BUILDERS = {
    "ens_qubit_fb": ens_qubit_fb,
    "ens_qutrit_open": ens_qutrit_open,
    "traj_record": traj_record,
    "sse_n8": sse_n8,
}
