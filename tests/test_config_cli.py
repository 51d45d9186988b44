"""JSON configuration parsing and the command-line entry points."""
import json

import numpy as np
import pytest

from smestab import ControllerSpec, config_from_dict, load_config, parse_matrix
from smestab.cli import main
from smestab.config import ConfigError


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


def test_cli_validate_rejects_bad_config(tmp_path, capsys):
    doc = qubit_doc()
    doc["model"]["eta"] = 2.0
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--config", path]) == 2
    assert "eta" in capsys.readouterr().err


def test_cli_simulate_writes_trajectory(tmp_path, capsys):
    path = write_doc(tmp_path, qubit_doc())
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out_dir)]) == 0
    assert (out_dir / "trajectory_0.csv").exists()
    assert main(
        ["simulate", "--config", path, "--out", str(out_dir), "--trajectory-index", "4"]
    ) == 0
    assert (out_dir / "trajectory_4.csv").exists()


def test_cli_ensemble_writes_summary(tmp_path, capsys):
    path = write_doc(tmp_path, qubit_doc())
    out_dir = tmp_path / "ens"
    assert main(["ensemble", "--config", path, "--out", str(out_dir)]) == 0
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "mean_curves.csv").exists()
    out = capsys.readouterr().out
    assert "target_frequency" in out


def test_cli_seed_override(tmp_path):
    path = write_doc(tmp_path, qubit_doc())
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["simulate", "--config", path, "--out", str(a), "--seed", "7"]) == 0
    assert main(["simulate", "--config", path, "--out", str(b), "--seed", "7"]) == 0
    assert (a / "trajectory_0.csv").read_text() == (b / "trajectory_0.csv").read_text()


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


def test_cli_missing_config_is_a_usage_error(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2
