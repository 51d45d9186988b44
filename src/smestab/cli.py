"""Command-line front end: validate, simulate, ensemble, levelset, rankcheck.

Exit codes: 0 success; 2 a configuration or validation error, an output path
that cannot be created or written (the directory is made once the inputs are
accepted, before any integration) or inputs too large to allocate; 3 a
numerical failure (integrate's failure rule, naming the step). simulate and
ensemble print the run's positivity clip count, which is always 0.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .analysis import kalman_like_rank, strong_regularity, unjoined_levels
from .bloch import levelset_table
from .config import ConfigError, load_config
from .ensemble import (
    run_ensemble,
    write_levelset_csv,
    write_mean_curves_csv,
    write_summary_csv,
    write_trajectory_csv,
)
from .integrate import IntegrationError, _noise_key, simulate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="smestab",
        description="Measurement-based feedback stabilization of nondemolition eigenstates",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", help="check a run configuration and report the model")
    q.add_argument("--config", required=True)

    q = sub.add_parser("simulate", help="integrate one trajectory and write its CSV")
    q.add_argument("--config", required=True)
    q.add_argument("--seed", type=int, default=None, help="override sim.seed")
    q.add_argument("--out", default=None, help="override output directory")
    q.add_argument("--trajectory-index", type=int, default=0)

    q = sub.add_parser("ensemble", help="integrate an ensemble and write summary CSVs")
    q.add_argument("--config", required=True)
    q.add_argument("--seed", type=int, default=None, help="override sim.seed")
    q.add_argument("--out", default=None, help="override output directory")

    q = sub.add_parser("levelset", help="closed-loop generator level set on the (y,z) disc")
    q.add_argument("--k", type=float, required=True)
    q.add_argument("--ell", type=float, required=True)
    q.add_argument("--mu", type=float, required=True)
    q.add_argument("--eta", type=float, required=True)
    q.add_argument("--resolution", type=int, default=201)
    q.add_argument("--out", default=None, help="output directory")

    q = sub.add_parser("rankcheck", help="closed-form commutator rank and regularity report")
    q.add_argument("--config", required=True)
    q.add_argument("--out", default=None, help="also write the report to a file")
    return p


def _out_dir(arg: str | None, cfg_dir: str | None) -> Path:
    out = Path(arg if arg is not None else (cfg_dir if cfg_dir is not None else "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _unjoined_line(cfg) -> str:
    """One line naming the levels that h_b does not join to the target (see unjoined_levels)."""
    levels = unjoined_levels(cfg.model, cfg.target)
    head = f"levels not joined to the target (level {cfg.target.level}) by h_b: "
    if not levels:
        return head + "none"
    return (head + ", ".join(map(str, levels))
            + "; each attracts locally under square_of_sum and tuned at every gain")


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    m = cfg.model
    print(f"model: n={m.n} mu={m.mu} eta={m.eta}")
    print(f"controller: {cfg.controller.kind} k={cfg.controller.k} ell={cfg.controller.ell}")
    print(
        f"sim: dt={cfg.sim.dt} t_final={cfg.sim.t_final} seed={cfg.sim.seed} "
        f"representation={cfg.sim.representation}"
    )
    print(f"ensemble: n_trajectories={cfg.n_trajectories}")
    print(_unjoined_line(cfg))
    print("configuration valid")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    sim = cfg.sim if args.seed is None else replace(cfg.sim, seed=args.seed)
    _noise_key(args.trajectory_index)  # an input too: refused before the directory is made
    out = _out_dir(args.out, cfg.output_dir)
    traj = simulate(
        cfg.rho0, cfg.model, cfg.target, cfg.controller, sim, trajectory_index=args.trajectory_index
    )
    path = out / f"trajectory_{traj.trajectory_index}.csv"
    write_trajectory_csv(path, traj)
    print(f"wrote {path}")
    print(
        f"outcome={traj.outcome} final_fidelity={traj.fidelity_target[-1]:.6f} "
        f"steps={traj.n_steps} projected={traj.n_projected}"
    )
    return EXIT_OK


def _cmd_ensemble(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, sim=replace(cfg.sim, seed=args.seed))
    out = _out_dir(args.out, cfg.output_dir)
    stats = run_ensemble(cfg)
    write_summary_csv(out / "summary.csv", stats)
    write_mean_curves_csv(out / "mean_curves.csv", stats)
    print(f"wrote {out / 'summary.csv'} and {out / 'mean_curves.csv'}")
    print(
        f"trajectories={stats.n_trajectories} "
        f"target_frequency={stats.target_frequency:.4f} "
        f"(stderr {stats.target_frequency_stderr:.4f}) "
        f"supermartingale_violations={stats.supermartingale_violations} "
        f"projected={stats.n_projected}/{stats.n_trajectories * stats.n_steps}"
    )
    return EXIT_OK


def _cmd_levelset(args) -> int:
    table = levelset_table(args.k, args.ell, args.mu, args.eta, resolution=args.resolution)
    out = _out_dir(args.out, None)
    path = out / f"levelset_k{args.k:g}_ell{args.ell:g}.csv"
    write_levelset_csv(path, table)
    worst = float(table["lv"].max())
    print(f"wrote {path}")
    print(f"max lv over grid = {worst:.3e} (must be <= 0)")
    return EXIT_OK


def _cmd_rankcheck(args) -> int:
    cfg = load_config(args.config)
    out = None if args.out is None else _out_dir(args.out, cfg.output_dir)
    lines = []
    for use, letter in (("h_a", "-i h_a"), ("c", "c")):
        rep = kalman_like_rank(cfg.model, cfg.target, use=use)
        lines.append(
            f"kalman-like rank, A = {letter + ':':7} achieved {rep.achieved_rank} / required "
            f"{rep.required_rank}: {'PASSED' if rep.passed else 'FAILED'}"
        )
    lines.append(f"strong regularity h_a: {strong_regularity(cfg.model.energies)}")
    lines.append(f"strong regularity c:   {strong_regularity(cfg.model.levels)}")
    lines.append(_unjoined_line(cfg))
    text = "\n".join(lines)
    print(text)
    if out is not None:
        (out / "rank_report.txt").write_text(text + "\n")
        print(f"wrote {out / 'rank_report.txt'}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "simulate": _cmd_simulate,
        "ensemble": _cmd_ensemble,
        "levelset": _cmd_levelset,
        "rankcheck": _cmd_rankcheck,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError, MemoryError) as exc:  # numpy's names the array's shape
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # its message names the path
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
