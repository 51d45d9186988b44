"""Capture the reference values the benchmark's checks compare against.

    python3 bench/capture_reference.py

For each ensemble workload, the mean and per-trajectory standard deviation of
each statistic it bands (workloads.STATISTICS) over BATCHES jobs of B
trajectories each; for traj_record, the number of CSV rows one trajectory
writes. The values are a property of the model, not of a seed: a later
kernel must reproduce them within the bands the checks state. Writes
bench/reference.json.
"""
from __future__ import annotations

import json

import numpy as np

import run

# far from the seeds the benchmark is run with, so no check sees its own samples
CAPTURE_SEED = 9_000_001
BATCHES = 20


def main() -> None:
    run.import_program()
    import workloads

    ref = {"seed": CAPTURE_SEED, "commit": run.git_commit()}
    for name in ("ens_qubit_fb", "ens_qutrit_open", "sse_n8"):
        wl = workloads.BUILDERS[name](CAPTURE_SEED)
        results = [wl.run_batch(wl.indices(j)) for j in range(BATCHES)]
        ref[name] = {"t_final": wl.sim.t_final, "trajectories": BATCHES * wl.batch}
        for stat in wl.banded:
            x = np.concatenate([workloads.STATISTICS[stat](res) for res in results])
            ref[name][stat] = {"mean": float(np.mean(x)), "sd": float(np.std(x, ddof=1))}
        print(name, ref[name], flush=True)
    wl = workloads.BUILDERS["traj_record"](CAPTURE_SEED)
    ref["traj_record"] = {"rows": wl.sim.n_steps // wl.sim.record_stride + 1}
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
