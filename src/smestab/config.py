"""JSON run configurations.

Complex matrices are written as nested arrays of [re, im] pairs, row major:

    "c": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]

A full configuration carries model, target, controller, sim, ensemble, rho0,
and an optional output_dir.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dynamics import ModelSpec, TargetSpec
from .ensemble import EnsembleConfig
from .integrate import SimConfig
from .lyapunov import ControllerSpec


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def parse_matrix(obj, where: str = "matrix") -> np.ndarray:
    """Nested [re, im] pairs, row major, to a complex ndarray."""
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"{where}: expected a non-empty nested list")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise ConfigError(f"{where}[{i}]: expected a list of [re, im] pairs")
        entries = []
        for j, pair in enumerate(row):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(v, (int, float)) for v in pair)
            ):
                raise ConfigError(f"{where}[{i}][{j}]: expected an [re, im] pair")
            entries.append(complex(pair[0], pair[1]))
        rows.append(entries)
    if len({len(r) for r in rows}) != 1:
        raise ConfigError(f"{where}: ragged rows")
    return np.array(rows, dtype=complex)


def _section(doc: dict, key: str) -> dict:
    if key not in doc or not isinstance(doc[key], dict):
        raise ConfigError(f"missing section {key!r}")
    return doc[key]


def _get(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"{where}: missing key {key!r}")
    return section[key]


def config_from_dict(doc: dict) -> EnsembleConfig:
    """Build and validate a full run configuration from parsed JSON."""
    msec = _section(doc, "model")
    n = _get(msec, "n", "model")
    h_a = parse_matrix(_get(msec, "h_a", "model"), "model.h_a")
    h_b = parse_matrix(_get(msec, "h_b", "model"), "model.h_b")
    c = parse_matrix(_get(msec, "c", "model"), "model.c")
    if h_a.shape != (n, n):
        raise ConfigError(f"model.n = {n} does not match matrix shape {h_a.shape}")
    try:
        model = ModelSpec(
            h_a=h_a, h_b=h_b, c=c, mu=float(_get(msec, "mu", "model")), eta=float(_get(msec, "eta", "model"))
        )
        tsec = _section(doc, "target")
        target = TargetSpec.for_model(model, parse_matrix(_get(tsec, "rho_d", "target"), "target.rho_d"))
        csec = _section(doc, "controller")
        ctrl = ControllerSpec(
            kind=_get(csec, "kind", "controller"),
            k=float(csec.get("k", 1.0)),
            ell=float(csec.get("ell", 1.0)),
        )
        ssec = _section(doc, "sim")
        sim = SimConfig(
            dt=float(_get(ssec, "dt", "sim")),
            t_final=float(_get(ssec, "t_final", "sim")),
            seed=int(_get(ssec, "seed", "sim")),
            record_stride=int(ssec.get("record_stride", 1)),
            representation=ssec.get("representation", "sme"),
        )
        n_traj = int(doc.get("ensemble", {}).get("n_trajectories", 1))
        rho0 = parse_matrix(_get(doc, "rho0", "config"), "rho0")
        return EnsembleConfig(
            n_trajectories=n_traj,
            model=model,
            target=target,
            controller=ctrl,
            sim=sim,
            rho0=rho0,
            output_dir=doc.get("output_dir"),
        )
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> EnsembleConfig:
    """Read and validate a JSON run configuration."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return config_from_dict(doc)
