"""JSON configuration parsing and the command-line entry points."""
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from smestab import ControllerSpec
from smestab.cli import main
from smestab.config import ConfigError, config_from_dict, load_config, parse_matrix
from smestab.hermitian import validate_density
from smestab.integrate import run_batch

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def matrix_to_literal(m):
    """Inverse of parse_matrix."""
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def qubit_doc(**overrides):
    doc = {
        "model": {
            "n": 2,
            "h_a": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
            "h_b": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
            "c": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
            "mu": 1.0,
            "eta": 0.5,
        },
        "target": {"rho_d": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
        "controller": {"kind": "square_of_sum", "k": 1.0, "ell": 1.0},
        "sim": {"dt": 1e-3, "t_final": 0.2, "seed": 42, "record_stride": 20},
        "ensemble": {"n_trajectories": 5},
        "rho0": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
    }
    doc.update(overrides)
    return doc


def one_level_doc(n):
    """A config for a one-level "system": 1x1 matrices, model.n = n."""
    one = [[[1, 0]]]
    return qubit_doc(
        model={"n": n, "h_a": one, "h_b": one, "c": one, "mu": 1.0, "eta": 0.5},
        target={"rho_d": one},
        rho0=one,
    )


def write_doc(tmp_path, doc, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_parse_matrix_accepts_re_im_pairs():
    m = parse_matrix([[[1, 0], [0, -1]], [[0, 1], [2.5, 0]]])
    expected = np.array([[1.0, -1.0j], [1.0j, 2.5]])
    np.testing.assert_allclose(m, expected, atol=0.0)


def test_parse_matrix_rejects_malformed_input():
    with pytest.raises(ConfigError, match="non-empty"):
        parse_matrix([])
    with pytest.raises(ConfigError, match="pair"):
        parse_matrix([[1.0, 2.0]])
    with pytest.raises(ConfigError, match="pair"):
        parse_matrix([[[1, 0, 0]]])
    with pytest.raises(ConfigError, match="ragged"):
        parse_matrix([[[1, 0], [0, 0]], [[1, 0]]])
    # booleans and non-finite parts are refused, and the entry is named
    for bad in (True, False, float("nan"), float("inf"), -float("inf"), "1", None, 10**400):
        with pytest.raises(ConfigError, match=r"^model\.c\[1\]\[0\] re must be a finite number"):
            parse_matrix([[[1, 0], [0, 0]], [[bad, 0], [1, 0]]], "model.c")
        with pytest.raises(ConfigError, match=r"^rho0\[0\]\[1\] im must be a finite number"):
            parse_matrix([[[1, 0], [0, bad]], [[0, 0], [1, 0]]], "rho0")


def test_json_booleans_and_non_finite_literals_in_a_matrix_are_config_errors(tmp_path, capsys):
    # NaN, Infinity and true are what json reads from the bare tokens
    for token, entry in (("NaN", "model.h_b[0][1] re"), ("Infinity", "model.h_b[0][1] re"),
                         ("-Infinity", "model.h_b[0][1] re"), ("true", "model.h_b[0][1] re")):
        text = json.dumps(qubit_doc()).replace(
            '"h_b": [[[0, 0], [1, 0]]', f'"h_b": [[[0, 0], [{token}, 0]]'
        )
        assert token in text
        with pytest.raises(ConfigError, match=rf"{re.escape(entry)} must be a finite number"):
            config_from_dict(json.loads(text))
        path = tmp_path / "run.json"
        path.write_text(text)
        assert main(["validate", "--config", str(path)]) == 2
        assert entry in capsys.readouterr().err


def test_matrix_literal_round_trip():
    rng = np.random.default_rng(95)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_allclose(parse_matrix(matrix_to_literal(m)), m, atol=0.0)


def test_config_from_dict_builds_ensemble_config():
    cfg = config_from_dict(qubit_doc())
    assert cfg.n_trajectories == 5
    assert cfg.model.n == 2
    assert cfg.controller.kind == "square_of_sum"
    assert cfg.sim.n_steps == 200
    np.testing.assert_allclose(cfg.rho0, np.eye(2) / 2, atol=0.0)
    # an integral float is an integer
    doc = qubit_doc(ensemble={"n_trajectories": 200.0})
    doc["sim"].update(seed=7.0, record_stride=20.0)
    cfg = config_from_dict(doc)
    assert (cfg.n_trajectories, cfg.sim.seed, cfg.sim.record_stride) == (200, 7, 20)


def test_config_defaults():
    doc = qubit_doc()
    del doc["ensemble"]
    doc["controller"] = {"kind": "open_loop"}
    cfg = config_from_dict(doc)
    assert cfg.n_trajectories == 1
    assert cfg.controller.k == 1.0


def test_config_missing_section_and_wrapped_errors():
    doc = qubit_doc()
    del doc["target"]
    with pytest.raises(ConfigError, match="target"):
        config_from_dict(doc)
    doc = qubit_doc()
    doc["model"]["mu"] = -1.0
    with pytest.raises(ConfigError, match="mu"):
        config_from_dict(doc)
    doc = qubit_doc()
    doc["model"]["n"] = 3
    with pytest.raises(ConfigError, match="does not match"):
        config_from_dict(doc)
    with pytest.raises(ConfigError, match="2x2 or more"):
        config_from_dict(one_level_doc(1))
    bad_integers = (
        ("sim", "record_stride", 2.5),
        ("sim", "seed", 7.9),
        ("sim", "seed", True),
        ("sim", "seed", "7"),
        ("ensemble", "n_trajectories", 3.7),
        ("ensemble", "n_trajectories", False),
        ("model", "n", True),
        ("model", "n", 2.5),
        ("model", "n", "2"),
    )
    for section, key, value in bad_integers:
        doc = qubit_doc()
        doc[section][key] = value
        with pytest.raises(ConfigError, match=f"{section}.{key} must be an integer"):
            config_from_dict(doc)
    bad_reals = (
        ("sim", "dt", True),
        ("sim", "t_final", "2"),
        ("model", "mu", float("nan")),
        ("model", "eta", float("inf")),
        ("controller", "k", None),
        ("controller", "ell", 10**400),
    )
    for section, key, value in bad_reals:
        doc = qubit_doc()
        doc[section][key] = value
        with pytest.raises(ConfigError, match=f"{section}.{key} must be a finite number"):
            config_from_dict(doc)
    # NaN is what json reads from a bare NaN token
    doc = json.loads(json.dumps(qubit_doc()).replace('"mu": 1.0', '"mu": NaN'))
    with pytest.raises(ConfigError, match="model.mu must be a finite number"):
        config_from_dict(doc)


@pytest.mark.parametrize("value", [True, 2, 2.0, 2.5, "2", float("nan"), np.int64(2)], ids=repr)
@pytest.mark.parametrize("section, key", [("sim", "seed"), ("sim", "record_stride"),
                                          ("ensemble", "n_trajectories")])
def test_integer_keys_get_one_verdict_through_the_config_and_the_dataclasses(section, key, value):
    # config_from_dict and SimConfig / EnsembleConfig share one integrality rule
    doc = qubit_doc()
    doc[section][key] = value
    try:
        loaded = config_from_dict(doc)
    except ConfigError as exc:
        assert f"{section}.{key} must be an integer" in str(exc)
        loaded = None
    base = config_from_dict(qubit_doc())
    try:
        if section == "sim":
            built = replace(base.sim, **{key: value})
        else:
            built = replace(base, n_trajectories=value)
    except ValueError:
        built = None
    accepted = not isinstance(value, (bool, str)) and value == 2
    assert (loaded is not None) == (built is not None) == accepted
    if accepted:
        got = getattr(loaded.sim if section == "sim" else loaded, key)
        assert got == 2 and type(got) is int
        assert type(getattr(built, key)) is int


def test_load_config(tmp_path):
    path = write_doc(tmp_path, qubit_doc())
    cfg = load_config(path)
    assert cfg.sim.seed == 42
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_cli_validate(tmp_path, capsys):
    path = write_doc(tmp_path, qubit_doc())
    assert main(["validate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "configuration valid" in out


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_load_validate_and_step_on_the_cone(path, capsys):
    # every file under configs/ loads, passes `smestab validate`, and a few
    # steps of four trajectories keep every recorded state a density
    cfg = load_config(path)
    assert main(["validate", "--config", str(path)]) == 0
    assert "configuration valid" in capsys.readouterr().out
    sim = replace(cfg.sim, t_final=20 * cfg.sim.dt, record_stride=5)
    res = run_batch(cfg.rho0, cfg.model, cfg.target, cfg.controller, sim, n_trajectories=4,
                    record_states=True)
    assert res.states.shape == (4, 5, cfg.model.n, cfg.model.n)
    for row in res.states.reshape(-1, cfg.model.n, cfg.model.n):
        validate_density(row)


def test_shipped_configs_include_the_spin_systems():
    assert {"qubit.json", "three_level.json", "spin_3_2.json", "spin_2.json"} <= {
        p.name for p in SHIPPED_CONFIGS
    }


def test_cli_validate_rejects_bad_config(tmp_path, capsys):
    doc = qubit_doc()
    doc["model"]["eta"] = 2.0
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--config", path]) == 2
    assert "eta" in capsys.readouterr().err
    # a one-level model is refused by every subcommand that reads a config
    for n, message in ((True, "model.n must be an integer"), (1, "2x2 or more")):
        path = write_doc(tmp_path, one_level_doc(n))
        for argv in (["validate"], ["simulate", "--out", str(tmp_path / "s")],
                     ["ensemble", "--out", str(tmp_path / "e")], ["rankcheck"]):
            assert main([*argv, "--config", path]) == 2, (n, argv)
            assert message in capsys.readouterr().err, (n, argv)


def test_validate_refuses_state_vector_configs_that_no_run_could_start(tmp_path, capsys):
    # the state-vector representation needs eta = 1 and a rank-one rho0:
    # validate refuses what every run refuses, with the same message, and
    # passes a unit-efficiency config from a pure start, which then runs
    sim = {"dt": 1e-3, "t_final": 0.2, "seed": 42, "representation": "sse"}
    half, unit = qubit_doc()["model"], {**qubit_doc()["model"], "eta": 1.0}
    plus = [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]
    for model, rho0, message in ((half, plus, "requires eta = 1"),
                                 (unit, qubit_doc()["rho0"], "requires a rank-one rho0")):
        path = write_doc(tmp_path, qubit_doc(model=model, sim=sim, rho0=rho0))
        for argv in (["validate"], ["simulate", "--out", str(tmp_path / "s")],
                     ["ensemble", "--out", str(tmp_path / "e")]):
            assert main([*argv, "--config", path]) == 2, (message, argv)
            assert message in capsys.readouterr().err, (message, argv)
    path = write_doc(tmp_path, qubit_doc(model=unit, sim=sim, rho0=plus))
    assert main(["validate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "representation=sse" in out and "configuration valid" in out
    assert main(["simulate", "--out", str(tmp_path / "ok"), "--config", path]) == 0


def test_a_horizon_that_is_not_a_whole_number_of_steps_is_a_config_error(tmp_path, capsys):
    # 0.15/0.1 = 1.4999999999999998 would run to t = 0.1, 1.0/0.3 to t = 0.9
    for dt, t_final in ((0.1, 0.15), (0.3, 1.0)):
        path = write_doc(tmp_path, qubit_doc(sim={"dt": dt, "t_final": t_final, "seed": 42}))
        for argv in (["validate"], ["simulate", "--out", str(tmp_path / "s")],
                     ["ensemble", "--out", str(tmp_path / "e")]):
            assert main([*argv, "--config", path]) == 2, (dt, argv)
            assert "whole number of steps" in capsys.readouterr().err, (dt, argv)


def test_cli_simulate_writes_trajectory(tmp_path, capsys):
    path = write_doc(tmp_path, qubit_doc())
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out_dir)]) == 0
    assert (out_dir / "trajectory_0.csv").exists()
    assert main(
        ["simulate", "--config", path, "--out", str(out_dir), "--trajectory-index", "4"]
    ) == 0
    assert (out_dir / "trajectory_4.csv").exists()
    capsys.readouterr()
    for index in ("-1", str(2**64)):
        argv = ["simulate", "--config", path, "--out", str(out_dir), "--trajectory-index", index]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: trajectory index")


def test_cli_ensemble_writes_summary(tmp_path, capsys):
    path = write_doc(tmp_path, qubit_doc())
    out_dir = tmp_path / "ens"
    assert main(["ensemble", "--config", path, "--out", str(out_dir)]) == 0
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "mean_curves.csv").exists()
    out = capsys.readouterr().out
    assert "target_frequency" in out


def test_cli_exits_3_naming_the_step_whose_trace_is_not_positive(tmp_path, capsys):
    doc = qubit_doc()
    doc["controller"]["k"] = 1e10
    path = write_doc(tmp_path, doc)
    for command in ("simulate", "ensemble"):
        assert main([command, "--config", path, "--out", str(tmp_path / command)]) == 3
        err = capsys.readouterr().err
        assert re.search(r"^numerical failure: .* at step \d+; reduce dt$", err, re.M), err


def test_cli_warns_once_when_most_trajectory_steps_are_clipped(tmp_path, capsys):
    # square_of_sum from I/2 at dt = 1e-3 over 50 steps on the qubit at
    # eta = 1: k = 100 clips most trajectory-steps, k = 1 none. Both commands
    # print the clip count, warn on stderr only at k = 100, and exit 0
    doc = qubit_doc(sim={"dt": 1e-3, "t_final": 0.05, "seed": 7, "record_stride": 10},
                    ensemble={"n_trajectories": 50})
    doc["model"]["eta"] = 1.0
    for k, mostly_clipped in ((100.0, True), (1.0, False)):
        doc["controller"]["k"] = k
        path = write_doc(tmp_path, doc)
        for command, pattern, steps in (("simulate", r"steps=(\d+) projected=(\d+)$", 50),
                                        ("ensemble", r" projected=(\d+)/(\d+)$", 2500)):
            assert main([command, "--config", path, "--out", str(tmp_path / command)]) == 0
            out, err = capsys.readouterr()
            counts = [int(v) for v in re.search(pattern, out, re.M).groups()]
            clips = counts[1] if command == "simulate" else counts[0]
            assert steps in counts and (2 * clips >= steps) == mostly_clipped, (k, command, out)
            if mostly_clipped:
                assert err.count("\n") == 1 and err.startswith(
                    f"warning: {clips} of {steps} trajectory-steps were clipped"), err
            else:
                assert clips == 0 and err == "", (k, command, err)


def test_cli_seed_override(tmp_path):
    # the same seed writes the same CSV bytes, another seed other ones
    path = write_doc(tmp_path, qubit_doc())

    def written(command, seed, name):
        out = tmp_path / command / name
        assert main([command, "--config", path, "--out", str(out), "--seed", seed]) == 0
        return sorted((f.name, f.read_bytes()) for f in out.iterdir())

    for command in ("simulate", "ensemble"):
        assert written(command, "7", "a") == written(command, "7", "b"), command
        assert written(command, "8", "c") != written(command, "7", "a"), command


def test_cli_levelset(tmp_path):
    out_dir = tmp_path / "lv"
    code = main(
        ["levelset", "--k", "1", "--ell", "1", "--mu", "1", "--eta", "0.5",
         "--resolution", "21", "--out", str(out_dir)]
    )
    assert code == 0
    assert (out_dir / "levelset_k1_ell1.csv").exists()


def test_cli_rankcheck(tmp_path, capsys):
    path = write_doc(tmp_path, qubit_doc())
    assert main(["rankcheck", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "rank" in out.lower()
    # --out writes exactly the report it prints, then names the file
    assert main(["rankcheck", "--config", path, "--out", str(tmp_path / "r")]) == 0
    report = tmp_path / "r" / "rank_report.txt"
    assert capsys.readouterr().out == out + f"wrote {report}\n"
    assert report.read_text() == out


def test_cli_missing_config_is_a_usage_error(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2


def test_a_non_object_ensemble_section_is_a_config_error(tmp_path, capsys):
    for section in ([{"n_trajectories": 5}], 5, "many", None):
        with pytest.raises(ConfigError, match="section 'ensemble' must be an object"):
            config_from_dict(qubit_doc(ensemble=section))
    path = write_doc(tmp_path, qubit_doc(ensemble=[{"n_trajectories": 5}]))
    out = ["--out", str(tmp_path / "out")]
    for argv in (["validate"], ["simulate", *out], ["ensemble", *out]):
        assert main([*argv, "--config", path]) == 2
        assert capsys.readouterr().err.startswith("error: section 'ensemble' must be an object")
    assert not (tmp_path / "out").exists()


def test_output_dir_must_be_a_string_or_null(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for value in (5, True, ["out"], {"dir": "out"}):
        with pytest.raises(ConfigError, match="output_dir must be a string or null"):
            config_from_dict(qubit_doc(output_dir=value))
        path = write_doc(tmp_path, qubit_doc(output_dir=value))
        for command in ("validate", "simulate", "ensemble"):
            assert main([command, "--config", path]) == 2
            assert capsys.readouterr().err.startswith("error: output_dir must be a string or null")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]
    # a string names the directory written without --out; null means the working directory
    path = write_doc(tmp_path, qubit_doc(output_dir=str(tmp_path / "cfg_out")))
    assert main(["simulate", "--config", path]) == 0
    assert (tmp_path / "cfg_out" / "trajectory_0.csv").exists()
    path = write_doc(tmp_path, qubit_doc(output_dir=None))
    assert main(["simulate", "--config", path]) == 0
    assert (tmp_path / "trajectory_0.csv").exists()
