"""JSON run configurations.

Complex matrices are written as nested arrays of [re, im] pairs, row major:

    "c": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]

A full configuration carries model, target, controller, sim, ensemble, rho0,
and an optional output_dir. Every fault raises a ValueError naming the key
or the file.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dynamics import ModelSpec, TargetSpec
from .ensemble import EnsembleConfig
from .integrate import SimConfig
from .lyapunov import ControllerSpec
from .params import as_integer, as_real


def parse_matrix(obj, where: str = "matrix") -> np.ndarray:
    """Nested [re, im] pairs, row major, to a complex ndarray; ValueError names a bad entry."""
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{where}: expected a non-empty nested list")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise ValueError(f"{where}[{i}]: expected a list of [re, im] pairs")
        entries = []
        for j, pair in enumerate(row):
            entry = f"{where}[{i}][{j}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(f"{entry}: expected an [re, im] pair")
            entries.append(complex(as_real(pair[0], f"{entry} re"), as_real(pair[1], f"{entry} im")))
        rows.append(entries)
    if len({len(r) for r in rows}) != 1:
        raise ValueError(f"{where}: ragged rows")
    return np.array(rows, dtype=complex)


def _section(doc: dict, key: str) -> dict:
    if key not in doc or not isinstance(doc[key], dict):
        raise ValueError(f"missing section {key!r}")
    return doc[key]


def _get(section: dict, key: str, where: str):
    if key not in section:
        raise ValueError(f"{where}: missing key {key!r}")
    return section[key]


def config_from_dict(doc: dict) -> EnsembleConfig:
    """Build and validate a full run configuration from parsed JSON."""
    msec = _section(doc, "model")
    h_a = parse_matrix(_get(msec, "h_a", "model"), "model.h_a")
    h_b = parse_matrix(_get(msec, "h_b", "model"), "model.h_b")
    c = parse_matrix(_get(msec, "c", "model"), "model.c")
    model = ModelSpec(
        h_a=h_a,
        h_b=h_b,
        c=c,
        mu=as_real(_get(msec, "mu", "model"), "model.mu"),
        eta=as_real(_get(msec, "eta", "model"), "model.eta"),
    )
    tsec = _section(doc, "target")
    target = TargetSpec.for_model(model, parse_matrix(_get(tsec, "rho_d", "target"), "target.rho_d"))
    csec = _section(doc, "controller")
    ctrl = ControllerSpec(
        kind=_get(csec, "kind", "controller"),
        k=as_real(csec.get("k", 1.0), "controller.k"),
        ell=as_real(csec.get("ell", 1.0), "controller.ell"),
    )
    ssec = _section(doc, "sim")
    sim = SimConfig(
        dt=as_real(_get(ssec, "dt", "sim"), "sim.dt"),
        t_final=as_real(_get(ssec, "t_final", "sim"), "sim.t_final"),
        seed=as_integer(_get(ssec, "seed", "sim"), "sim.seed"),
        record_stride=as_integer(ssec.get("record_stride", 1), "sim.record_stride"),
        representation=ssec.get("representation", "sme"),
    )
    esec = doc.get("ensemble", {})
    if not isinstance(esec, dict):
        raise ValueError(f"section 'ensemble' must be an object, got {esec!r}")
    n_traj = as_integer(esec.get("n_trajectories", 1), "ensemble.n_trajectories")
    rho0 = parse_matrix(_get(doc, "rho0", "config"), "rho0")
    output_dir = doc.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ValueError(f"output_dir must be a string or null, got {output_dir!r}")
    return EnsembleConfig(
        n_trajectories=n_traj,
        model=model,
        target=target,
        controller=ctrl,
        sim=sim,
        rho0=rho0,
        output_dir=output_dir,
    )


def load_config(path: str | Path) -> EnsembleConfig:
    """Read and validate a JSON run configuration."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be an object")
    return config_from_dict(doc)
