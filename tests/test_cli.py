import hashlib
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import ccpirl
from ccpirl.cli import main
from ccpirl.envs import default_traj_length
from ccpirl.model import load_model, load_trajectories, validate_model


def run(*argv):
    return main(list(argv))


def gen_env(tmp_path, name="env", **kw):
    out = tmp_path / name
    args = ["gen-env", "--env", kw.pop("env", "fixed"),
            "--n", str(kw.pop("n", 4)), "--seed", str(kw.pop("seed", 0)),
            "--out", str(out)]
    for k, v in kw.items():
        args += [f"--{k.replace('_', '-')}", str(v)]
    assert run(*args) == 0
    return out


def gen_experts(tmp_path, env_dir, name="demos.json", n=10, seed=1, **kw):
    out = tmp_path / name
    args = ["gen-experts", "--env-dir", str(env_dir),
            "--n-trajectories", str(n), "--seed", str(seed),
            "--out", str(out)]
    for k, v in kw.items():
        args += [f"--{k.replace('_', '-')}", str(v)]
    assert run(*args) == 0
    return out


def test_gen_env_smoke(tmp_path):
    out = gen_env(tmp_path, n=8, seed=7)
    for fname in ("model.json", "true_reward.json", "features.csv",
                  "config.json"):
        assert (out / fname).exists()
    model = load_model(out / "model.json")
    assert validate_model(model) == []
    assert model.n_states == 64


def test_gen_env_deterministic(tmp_path):
    a = gen_env(tmp_path, name="a", n=5, seed=3)
    b = gen_env(tmp_path, name="b", n=5, seed=3)
    for fname in ("model.json", "true_reward.json", "features.csv"):
        assert (a / fname).read_bytes() == (b / fname).read_bytes()


def test_gen_env_rejects_nonpositive_n(tmp_path, capsys):
    code = run("gen-env", "--env", "fixed", "--n", "0", "--seed", "0",
               "--out", str(tmp_path / "x"))
    assert code == 2
    assert "--n" in capsys.readouterr().err


def test_gen_env_requires_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CCPIRL_SEED", raising=False)
    code = run("gen-env", "--env", "fixed", "--n", "4",
               "--out", str(tmp_path / "x"))
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_seed_env_var_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CCPIRL_SEED", "5")
    code = run("gen-env", "--env", "fixed", "--n", "4",
               "--out", str(tmp_path / "x"))
    assert code == 0
    assert "CCPIRL_SEED" in capsys.readouterr().err


def test_gen_experts_count_and_round_trip(tmp_path):
    env = gen_env(tmp_path)
    demos = gen_experts(tmp_path, env, n=10)
    trajs = load_trajectories(demos)
    assert len(trajs) == 10
    again = load_trajectories(demos)
    assert all(np.array_equal(a.steps, b.steps)
               for a, b in zip(trajs, again))


def test_gen_experts_seed_changes_checksum(tmp_path):
    env = gen_env(tmp_path)
    a = gen_experts(tmp_path, env, name="a.json", seed=1)
    b = gen_experts(tmp_path, env, name="b.json", seed=2)
    assert hashlib.sha256(a.read_bytes()).digest() \
        != hashlib.sha256(b.read_bytes()).digest()


def test_gen_experts_default_length_follows_env_kind(tmp_path, capsys):
    # a macro grid has no goal, so every demo runs the full default length
    env = gen_env(tmp_path, env="macro", n=4, macro_size=2)
    trajs = load_trajectories(gen_experts(tmp_path, env))
    assert {len(t) for t in trajs} == {default_traj_length("macro", 4)}
    # without the config gen-env wrote, the length must be given
    (env / "config.json").unlink()
    assert run("gen-experts", "--env-dir", str(env), "--n-trajectories",
               "2", "--seed", "1", "--out", str(tmp_path / "x.json")) == 2
    assert "--traj-length" in capsys.readouterr().err
    gen_experts(tmp_path, env, name="y.json", traj_length=5)


def test_estimate_ccp_output(tmp_path):
    from ccpirl.ccp import load_ccp

    env = gen_env(tmp_path)
    demos = gen_experts(tmp_path, env)
    out = tmp_path / "ccp.json"
    assert run("estimate-ccp", "--env-dir", str(env),
               "--trajectories", str(demos), "--out", str(out)) == 0
    table = load_ccp(out)
    assert table.n_states == 16
    assert np.allclose(table.probs.sum(axis=1), 1.0, atol=1e-9)


def test_sparse_lu_module_loads_only_for_a_factorization(tmp_path):
    # a fresh interpreter: this one has long since loaded the module
    script = textwrap.dedent(f"""
        import sys
        from ccpirl.cli import main
        LU = "scipy.sparse.linalg"
        work = {str(tmp_path)!r}
        def train(algo):
            assert main(["train", "--env-dir", work + "/env",
                         "--trajectories", work + "/demos.json",
                         "--algo", algo, "--iterations", "2", "--seed", "0",
                         "--out", work + "/" + algo]) == 0
        assert main(["gen-env", "--env", "fixed", "--n", "4", "--seed", "0",
                     "--out", work + "/env"]) == 0
        assert main(["gen-experts", "--env-dir", work + "/env",
                     "--n-trajectories", "4", "--seed", "1",
                     "--out", work + "/demos.json"]) == 0
        train("maxent")
        assert LU not in sys.modules, "loaded before any factorization"
        train("ccp")
        assert LU in sys.modules
    """)
    src = os.path.dirname(os.path.dirname(ccpirl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_train_writes_report_rows(tmp_path):
    env = gen_env(tmp_path)
    demos = gen_experts(tmp_path, env)
    out = tmp_path / "run"
    assert run("train", "--env-dir", str(env), "--trajectories", str(demos),
               "--algo", "ccp", "--iterations", "5", "--seed", "0",
               "--out", str(out)) == 0
    lines = (out / "report.csv").read_text().strip().split("\n")
    assert len(lines) == 6  # header + 5 iterations
    assert (out / "checkpoint.json").exists()
    assert (out / "reward_grid.csv").exists()


def test_train_then_eval_both_algorithms(tmp_path, capsys):
    env = gen_env(tmp_path, n=6)
    demos = gen_experts(tmp_path, env, n=20)
    results = {}
    for algo in ("maxent", "ccp"):
        out = tmp_path / algo
        capsys.readouterr()
        assert run("train", "--env-dir", str(env),
                   "--trajectories", str(demos), "--algo", algo,
                   "--iterations", "10", "--seed", "0",
                   "--out", str(out)) == 0
        train_nll = float(capsys.readouterr().out.split("final nll")[1])
        res = tmp_path / f"{algo}.json"
        assert run("eval", "--env-dir", str(env),
                   "--checkpoint", str(out / "checkpoint.json"),
                   "--trajectories", str(demos), "--out", str(res)) == 0
        results[algo] = json.loads(res.read_text())
        # train reports the NLL that eval gives for its checkpoint
        assert abs(train_nll - results[algo]["nll"]) < 1e-9
    for data in results.values():
        assert set(data) == {"nll", "evd", "n_eval_trajectories",
                            "config_fingerprint"}
        assert np.isfinite(data["nll"]) and np.isfinite(data["evd"])


def test_eval_uniform_checkpoint_analytic_nll(tmp_path):
    # zero linear rewards make the soft policy exactly uniform
    env = gen_env(tmp_path, env="macro", n=4, macro_size=2)
    demos = gen_experts(tmp_path, env, n=5, traj_length=8)
    out = tmp_path / "run"
    assert run("train", "--env-dir", str(env), "--trajectories", str(demos),
               "--algo", "maxent", "--iterations", "0", "--seed", "0",
               "--out", str(out)) == 0
    res = tmp_path / "eval.json"
    assert run("eval", "--env-dir", str(env),
               "--checkpoint", str(out / "checkpoint.json"),
               "--trajectories", str(demos), "--out", str(res)) == 0
    data = json.loads(res.read_text())
    assert abs(data["nll"] - 8 * np.log(4.0)) < 1e-9


def test_train_resume_matches_uninterrupted(tmp_path):
    env = gen_env(tmp_path)
    demos = gen_experts(tmp_path, env, n=16)
    straight = tmp_path / "straight"
    assert run("train", "--env-dir", str(env), "--trajectories", str(demos),
               "--algo", "maxent", "--iterations", "10", "--seed", "0",
               "--out", str(straight)) == 0
    first = tmp_path / "first"
    assert run("train", "--env-dir", str(env), "--trajectories", str(demos),
               "--algo", "maxent", "--iterations", "5", "--seed", "0",
               "--out", str(first)) == 0
    second = tmp_path / "second"
    assert run("train", "--env-dir", str(env), "--trajectories", str(demos),
               "--algo", "maxent", "--iterations", "5", "--seed", "0",
               "--resume", str(first / "checkpoint.json"),
               "--out", str(second)) == 0
    a = json.loads((straight / "checkpoint.json").read_text())
    b = json.loads((second / "checkpoint.json").read_text())
    assert a["params"] == b["params"]
    assert b["iteration"] == 10


def test_train_empty_demos_exits_numeric(tmp_path, capsys):
    env = gen_env(tmp_path)
    demos = tmp_path / "empty.json"
    demos.write_text("[]")
    code = run("train", "--env-dir", str(env), "--trajectories", str(demos),
               "--algo", "ccp", "--iterations", "2", "--seed", "0",
               "--out", str(tmp_path / "run"))
    assert code == 3


def test_missing_env_dir_is_config_error(tmp_path, capsys):
    code = run("train", "--env-dir", str(tmp_path / "nope"),
               "--trajectories", str(tmp_path / "nope.json"),
               "--algo", "ccp", "--seed", "0",
               "--out", str(tmp_path / "run"))
    assert code == 2


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"env": "fixed", "n": 4, "seed": 9,
                               "out": str(tmp_path / "env")}))
    assert run("gen-env", "--config", str(cfg)) == 0
    assert (tmp_path / "env" / "model.json").exists()
    # explicit flags override config values
    assert run("gen-env", "--config", str(cfg),
               "--out", str(tmp_path / "env2")) == 0
    assert (tmp_path / "env2" / "model.json").exists()


def test_train_rejects_unknown_reward_from_config(tmp_path, capsys):
    # a config file's values skip the parser's choices, so train checks them
    env = gen_env(tmp_path)
    demos = gen_experts(tmp_path, env, n=4)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"reward": "banana"}))
    code = run("train", "--config", str(cfg), "--env-dir", str(env),
               "--trajectories", str(demos), "--algo", "ccp",
               "--iterations", "1", "--seed", "0",
               "--out", str(tmp_path / "train"))
    assert code == 2
    assert "banana" in capsys.readouterr().err


def test_train_rejects_unknown_algo_from_config(tmp_path, capsys):
    env = gen_env(tmp_path)
    demos = gen_experts(tmp_path, env, n=4)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algo": "banana"}))
    out = tmp_path / "train"
    code = run("train", "--config", str(cfg), "--env-dir", str(env),
               "--trajectories", str(demos), "--iterations", "1",
               "--seed", "0", "--out", str(out))
    assert code == 2
    assert "banana" in capsys.readouterr().err
    assert not out.exists()


def test_config_fingerprint_written(tmp_path):
    env = gen_env(tmp_path)
    config = json.loads((env / "config.json").read_text())
    assert config["config_fingerprint"]


def test_bench_unknown_suite(tmp_path, capsys):
    code = run("bench", "--suite", "bogus", "--out", str(tmp_path / "b"))
    assert code == 2
    assert "presets" in capsys.readouterr().err


def test_bench_custom_suite_file(tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({
        "name": "tiny",
        "cells": [
            {"env": "fixed", "n": 3, "iterations": 2, "n_trajectories": 6},
            {"env": "macro", "n": 4, "macro_size": 2, "iterations": 2,
             "n_trajectories": 6},
        ],
        "repeats": 1,
        "warmup": False,
    }))
    out = tmp_path / "bench"
    assert run("bench", "--suite", str(suite), "--out", str(out)) == 0
    lines = (out / "tiny.csv").read_text().strip().split("\n")
    assert len(lines) == 5  # header + 2 cells x 2 algorithms x 1 repeat


def test_train_is_deterministic_given_config(tmp_path):
    env = gen_env(tmp_path)
    demos = gen_experts(tmp_path, env)
    checkpoints = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run("train", "--env-dir", str(env),
                   "--trajectories", str(demos), "--algo", "ccp",
                   "--iterations", "5", "--seed", "0",
                   "--out", str(out)) == 0
        checkpoints.append(json.loads((out / "checkpoint.json").read_text()))
    assert checkpoints[0]["params"] == checkpoints[1]["params"]


def _commands(env, demos, tmp_path, checkpoint):
    return {
        "train": ["train", "--env-dir", str(env), "--trajectories", str(demos),
                  "--algo", "ccp", "--iterations", "2", "--seed", "0",
                  "--out", str(tmp_path / "bad-run")],
        "estimate-ccp": ["estimate-ccp", "--env-dir", str(env),
                         "--trajectories", str(demos),
                         "--out", str(tmp_path / "ccp.json")],
        "eval": ["eval", "--env-dir", str(env), "--checkpoint",
                 str(checkpoint), "--trajectories", str(demos),
                 "--out", str(tmp_path / "eval.json")],
    }


@pytest.mark.parametrize("steps, message", [
    ([[-1, 0], [0, 1]], "outside"),
    ([[0, 0], [16, 1]], "outside"),
    ([[0, 4]], "outside"),
    ([], "malformed"),
    ([[0, 1, 2]], "malformed"),
])
def test_bad_demo_files_are_config_errors(tmp_path, capsys, steps, message):
    env = gen_env(tmp_path)  # 16 states, 4 actions
    good = gen_experts(tmp_path, env)
    assert run("train", "--env-dir", str(env), "--trajectories", str(good),
               "--algo", "ccp", "--iterations", "1", "--seed", "0",
               "--out", str(tmp_path / "run")) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([steps]))
    capsys.readouterr()
    for name, argv in _commands(env, bad, tmp_path,
                                tmp_path / "run" / "checkpoint.json").items():
        assert run(*argv) == 2, name
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), (name, err)
        assert message in err[0]


THREE_WEIGHTS = json.dumps({
    "reward_kind": "linear", "params": {"theta": [0.0, 0.0, 0.0]},
    "optimizer": {"kind": "sgd", "step_size": 0.1}, "iteration": 1,
    "seed": 0})


@pytest.mark.parametrize("content, command", [
    ('{"bogus": 1}', "eval"),
    ("not json {", "resume"),
    (None, "resume"),
    (THREE_WEIGHTS, "eval"),
    (THREE_WEIGHTS, "resume"),
    ("not json {", "config"),
    ("not json {", "gen-experts"),
    ("not json {", "bench"),
], ids=["bogus-checkpoint", "not-json-resume", "missing-resume",
        "three-weight-eval", "three-weight-resume", "config",
        "true-reward", "suite"])
def test_bad_input_files_are_config_errors(tmp_path, capsys, content,
                                           command):
    env = gen_env(tmp_path)  # a 4x4 fixed grid: 2 features
    demos = gen_experts(tmp_path, env, n=2)
    # gen-experts reads the bad file as the env's true reward
    bad = env / "true_reward.json" if command == "gen-experts" \
        else tmp_path / "bad.json"
    if content is not None:
        bad.write_text(content)
    argv = {
        "eval": ["eval", "--env-dir", str(env), "--checkpoint", str(bad),
                 "--trajectories", str(demos),
                 "--out", str(tmp_path / "eval.json")],
        "resume": ["train", "--env-dir", str(env), "--trajectories",
                   str(demos), "--algo", "maxent", "--iterations", "1",
                   "--seed", "0", "--out", str(tmp_path / "run"),
                   "--resume", str(bad)],
        "config": ["train", "--config", str(bad)],
        "gen-experts": ["gen-experts", "--env-dir", str(env),
                        "--n-trajectories", "2", "--seed", "0",
                        "--out", str(tmp_path / "d.json")],
        "bench": ["bench", "--suite", str(bad), "--out", str(tmp_path / "b")],
    }[command]
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_gen_env_rejects_unit_discount(tmp_path, capsys):
    code = run("gen-env", "--env", "fixed", "--n", "4", "--beta", "1.0",
               "--seed", "0", "--out", str(tmp_path / "env"))
    assert code == 2
    assert "discount" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(discount=1.0), "discount"),
    (lambda d: d["transitions"][1]["values"].__setitem__(0, 2.0), "sums to"),
    (lambda d: d.update(n_states=17), "feature matrix row count"),
    (lambda d: d["transitions"].__setitem__(
        0, [1.0] + [0.0] * 255), "gen-env"),
])
def test_invalid_model_files_are_config_errors(tmp_path, capsys, edit,
                                               message):
    env = gen_env(tmp_path)
    demos = gen_experts(tmp_path, env)
    data = json.loads((env / "model.json").read_text())
    edit(data)
    (env / "model.json").write_text(json.dumps(data))
    capsys.readouterr()
    code = run("train", "--env-dir", str(env), "--trajectories", str(demos),
               "--algo", "ccp", "--iterations", "1", "--seed", "0",
               "--out", str(tmp_path / "run"))
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0]
