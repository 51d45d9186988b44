"""Density runs do not depend on the BLAS kernels of the host.

numpy's OpenBLAS is built with DYNAMIC_ARCH and picks its kernels by CPU, or
by OPENBLAS_CORETYPE when that is set, so one machine can run the kernels of
several CPUs. A density step is elementwise arithmetic in index order and
calls no BLAS (see dynamics._density_stack), so a steered qubit batch, an
open-loop three-level batch and a steered spin-3/2 batch, built from the
shipped configs and kept off the positivity floor, must give bit-identical
final states and controls under every core type the CPU supports. A ket step
calls BLAS, so a spin-3/2 state-vector batch is held to KET_TOL instead, with
the same outcomes; a clipping row is decided by LAPACK and is not tested.
"""
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]

# OpenBLAS core types with the /proc/cpuinfo flags each needs: SSE4.2, then
# AVX2 with FMA, then AVX-512, so the three differ in vector width and in FMA.
# A planted BLAS product in the spin-3/2 step gives Nehalem, which has no FMA,
# another result than the other two
CORE_TYPES = (
    ("Nehalem", {"sse4_2"}),
    ("Haswell", {"avx2", "fma"}),
    ("SkylakeX", {"avx512f", "avx512bw", "avx512vl", "avx512dq", "avx512cd"}),
)

# (name, shipped config, controller kind or None for the config's own, batch size).
# The qubit and three-level models have integer levels and couplings, so a BLAS
# product of either with a state is exact under every kernel; spin-3/2 has
# couplings of sqrt(3)/2, so a BLAS call in its step would round by core type
RUNS = (
    ("qubit_steered", "qubit", None, 16),
    ("three_level_open", "three_level", "open_loop", 40),
    ("spin_3_2_steered", "spin_3_2", None, 16),
)

# (name, shipped config, batch size) of a steered state-vector run at eta = 1
# from the uniform pure state, to t = 0.8. Its final states and controls
# differed by at most 1.5e-14 between Nehalem, Haswell and SkylakeX, and were
# never bit-identical
KET_RUN = ("spin_3_2_ket", "spin_3_2", 16)
KET_TOL = 1e-12

RUN = r"""
import ctypes, glob, hashlib, json, sys
from dataclasses import replace

import numpy as np

from smestab import ControllerSpec, run_batch
from smestab.config import load_config
from smestab.integrate import _classify

core = None
for lib in glob.glob(np.__path__[0] + ".libs/*openblas*"):
    for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                 "openblas_get_corename"):
        get = getattr(ctypes.CDLL(lib), name, None)
        if get is not None:
            get.restype = ctypes.c_char_p
            core = get().decode()
            break

out = {"core": core}
root, RUNS, KET_RUN = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
for name, config, kind, b in RUNS:
    cfg = load_config(f"{root}/configs/{config}.json")
    ctrl = cfg.controller if kind is None else ControllerSpec(kind=kind)
    sim = replace(cfg.sim, t_final=0.6, record_stride=100)
    res = run_batch(cfg.rho0, cfg.model, cfg.target, ctrl, sim, n_trajectories=b)
    digest = hashlib.sha256(res.final_states.tobytes() + res.controls.tobytes()).hexdigest()
    out[name] = {"sha256": digest, "clips": int(res.n_projected.sum())}
name, config, b = KET_RUN
cfg = load_config(f"{root}/configs/{config}.json")
n = cfg.model.n
sim = replace(cfg.sim, t_final=0.8, record_stride=100, representation="sse")
res = run_batch(np.full((n, n), 1.0 / n), replace(cfg.model, eta=1.0), cfg.target,
                cfg.controller, sim, n_trajectories=b)
out[name] = {"states": [res.final_states.real.tolist(), res.final_states.imag.tolist()],
             "controls": res.controls.tolist(),
             "outcomes": _classify(res.final_states, cfg.target)}
print(json.dumps(out))
"""


def _uses_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


def _cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    for line in text.splitlines():
        if line.startswith("flags"):
            return set(line.split(":", 1)[1].split())
    return set()


def test_density_batches_are_bit_identical_under_every_blas_core_type():
    if platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("OpenBLAS core types are x86-64 kernels")
    if not _uses_openblas():
        pytest.skip("numpy is not built on OpenBLAS")
    flags = _cpu_flags()
    cores = [name for name, needs in CORE_TYPES if needs <= flags]
    if len(cores) < 2:
        pytest.skip(f"the CPU supports fewer than two of the core types, {cores}")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    argv = [sys.executable, "-c", RUN, str(ROOT), json.dumps(RUNS), json.dumps(KET_RUN)]
    procs = [
        subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                         env=dict(env, OPENBLAS_CORETYPE=core))
        for core in cores
    ]
    runs = []
    for core, proc in zip(cores, procs):
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        runs.append(json.loads(stdout))
    reported = [run["core"] for run in runs]
    if None not in reported and len(set(reported)) < len(cores):
        pytest.skip(f"OPENBLAS_CORETYPE was not honoured: {cores} ran as {reported}")
    for name, *_ in RUNS:
        assert all(run[name]["clips"] == 0 for run in runs), name
        digests = {core: run[name]["sha256"] for core, run in zip(cores, runs)}
        assert len(set(digests.values())) == 1, (name, digests)
    kets = [run[KET_RUN[0]] for run in runs]
    for core, ket in zip(cores[1:], kets[1:]):
        assert ket["outcomes"] == kets[0]["outcomes"], core
        for key in ("states", "controls"):
            gap = np.max(np.abs(np.subtract(ket[key], kets[0][key])))
            assert gap <= KET_TOL, (core, key, gap)
