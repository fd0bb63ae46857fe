import csv
import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest

from ccpirl import metrics
from ccpirl.cli import BenchCell, bench_cell, main
from ccpirl.engine import save_checkpoint, train_ccp, train_maxent
from ccpirl.envs import GridSpec, build_fixed_target, generate_experts
from ccpirl.errors import EmptyData, InvalidInput, MaxSweepsExceeded
from ccpirl.metrics import (
    evd,
    hard_value_iteration,
    nll,
    policy_evaluation,
    soft_optimal_policy,
    uniform_policy,
)
from ccpirl.model import DdcModel, FeatureMatrix, SoftPolicy, Trajectory, \
    TransitionModel, save_trajectories
from ccpirl.rewards import GradientAscent, LinearReward, \
    broadcast_rewards, reward_table
from ccpirl.softdp import choice_values, policy_from_values, solve_soft_vi

from conftest import per_action, random_model


def scalar_model(beta):
    return DdcModel(
        n_states=1, n_actions=1,
        transitions=TransitionModel([np.ones((1, 1))]),
        discount=beta,
        features=FeatureMatrix(np.zeros((1, 1))),
        initial_dist=np.array([1.0]),
    )


def test_nll_uniform_policy_analytic():
    traj = Trajectory([(0, a % 4) for a in range(5)])
    out = nll(uniform_policy(1, 4), [traj])
    assert abs(out - 5 * np.log(4.0)) < 1e-12


def test_nll_deterministic_match_is_zero():
    probs = np.array([[1.0, 0.0], [0.0, 1.0]])
    traj = Trajectory([(0, 0), (1, 1)])
    assert nll(SoftPolicy(probs), [traj]) == 0.0


def test_nll_naive_accumulation_oracle():
    rng = np.random.default_rng(0)
    probs = rng.random((4, 3)) + 0.1
    probs /= probs.sum(axis=1, keepdims=True)
    trajs = [Trajectory(np.column_stack([rng.integers(0, 4, 6),
                                         rng.integers(0, 3, 6)]))
             for _ in range(5)]
    out = nll(probs, trajs)
    total = 0.0
    for t in trajs:
        for s, a in t.steps:
            total -= np.log(probs[s, a])
    assert abs(out - total / 5) < 1e-12


def test_nll_floors_zero_probabilities():
    probs = np.array([[1.0, 0.0]])
    out = nll(SoftPolicy(probs), [Trajectory([(0, 1)])])
    assert np.isfinite(out)


def test_nll_empty_raises():
    with pytest.raises(EmptyData):
        nll(uniform_policy(2, 2), [])


@pytest.mark.parametrize("step", [(-1, 0), (2, 0), (0, -1), (0, 2)])
def test_nll_rejects_out_of_range_steps(step):
    trajs = [Trajectory([(0, 0)]), Trajectory([(1, 1), step])]
    with pytest.raises(InvalidInput, match="trajectory 1"):
        nll(uniform_policy(2, 2), trajs)


def test_hard_vi_scalar_geometric():
    values, _ = hard_value_iteration(scalar_model(0.5), np.ones((1, 1)))
    assert abs(values[0] - 2.0) < 1e-7


def test_hard_vi_picks_argmax_at_beta_zero():
    model = DdcModel(
        n_states=1, n_actions=2,
        transitions=TransitionModel([np.ones((1, 1))] * 2),
        discount=0.0,
        features=FeatureMatrix(np.zeros((1, 1))),
        initial_dist=np.array([1.0]),
    )
    values, policy = hard_value_iteration(model, np.array([[1.0, 0.0]]))
    assert abs(values[0] - 1.0) < 1e-12
    assert np.array_equal(policy.probs, [[1.0, 0.0]])


def test_hard_vi_matches_over_iteration():
    model, true_reward = build_fixed_target(GridSpec(n=5, seed=1))
    r = broadcast_rewards(true_reward.values, model.n_actions)
    values, _ = hard_value_iteration(model, r, tolerance=1e-12)
    v = np.zeros(model.n_states)
    for _ in range(10000):
        q = r + 0.9 * np.column_stack(
            [m @ v for m in per_action(model.transitions)])
        v = q.max(axis=1)
    assert np.max(np.abs(values - v)) < 1e-8


def test_policy_evaluation_deterministic_chain():
    model = scalar_model(0.5)
    v = policy_evaluation(model, np.ones((1, 1)), np.ones((1, 1)))
    assert abs(v[0] - 2.0) < 1e-12


def test_policy_evaluation_of_optimal_policy():
    model, true_reward = build_fixed_target(GridSpec(n=4, seed=2))
    r = broadcast_rewards(true_reward.values, model.n_actions)
    values, greedy = hard_value_iteration(model, r, tolerance=1e-12)
    v = policy_evaluation(model, r, greedy)
    assert np.max(np.abs(v - values)) < 1e-6


def test_policy_evaluation_iterative_oracle():
    rng = np.random.default_rng(1)
    model = random_model(rng, n_states=5, n_actions=3, beta=0.9)
    r = rng.standard_normal((5, 3))
    probs = rng.random((5, 3)) + 0.1
    probs /= probs.sum(axis=1, keepdims=True)
    exact = policy_evaluation(model, r, probs)
    v = np.zeros(5)
    r_pi = np.sum(probs * r, axis=1)
    t_pi = sum(probs[:, a, None] * per_action(model.transitions)[a]
               for a in range(3))
    for _ in range(5000):
        v = r_pi + 0.9 * t_pi @ v
    assert np.max(np.abs(exact - v)) < 1e-10


def test_evd_of_optimal_policy_is_zero():
    model, true_reward = build_fixed_target(GridSpec(n=4, seed=0))
    r = broadcast_rewards(true_reward.values, model.n_actions)
    _, greedy = hard_value_iteration(model, r, tolerance=1e-12)
    assert abs(evd(model, true_reward, greedy)) < 1e-6


def test_evd_of_uniform_policy_is_positive():
    model, true_reward = build_fixed_target(GridSpec(n=4, seed=0))
    assert evd(model, true_reward,
               uniform_policy(model.n_states, model.n_actions)) > 0.0


def test_evd_nonnegative_for_random_policies():
    model, true_reward = build_fixed_target(GridSpec(n=4, seed=1))
    rng = np.random.default_rng(2)
    for _ in range(10):
        probs = rng.random((model.n_states, model.n_actions)) + 0.01
        probs /= probs.sum(axis=1, keepdims=True)
        assert evd(model, true_reward, SoftPolicy(probs)) >= -1e-6


@pytest.fixture
def counted_hard_vi(monkeypatch):
    """Counts the optimum solves evd makes, from an empty memo."""
    calls = []
    solve = metrics.hard_value_iteration

    def counted(model, rewards, *args, **kwargs):
        calls.append(model)
        return solve(model, rewards, *args, **kwargs)

    monkeypatch.setattr(metrics, "_optimal_memo", None)
    monkeypatch.setattr(metrics, "hard_value_iteration", counted)
    return calls


def test_evd_solves_the_optimum_once_per_model_and_reward(counted_hard_vi):
    model, true_reward = build_fixed_target(GridSpec(n=5, seed=3))
    v_star, _ = hard_value_iteration(model, true_reward)
    rng = np.random.default_rng(0)
    for _ in range(4):
        probs = rng.random((model.n_states, model.n_actions)) + 0.01
        policy = SoftPolicy(probs / probs.sum(axis=1, keepdims=True))
        expected = float(model.initial_dist @ (
            v_star - policy_evaluation(model, true_reward, policy)))
        assert evd(model, true_reward, policy) == expected  # bitwise
    assert len(counted_hard_vi) == 1


def test_evd_solves_again_for_another_reward_or_model(counted_hard_vi):
    model, true_reward = build_fixed_target(GridSpec(n=4, seed=0))
    policy = uniform_policy(model.n_states, model.n_actions)
    first = evd(model, true_reward, policy)
    other_reward = true_reward.values + 1.0
    assert evd(model, other_reward, policy) != first
    assert len(counted_hard_vi) == 2
    # the memo holds one entry: going back to the first reward solves again
    assert evd(model, true_reward, policy) == first
    assert len(counted_hard_vi) == 3
    # equal contents, another object
    twin = dataclasses.replace(model, discount=model.discount)
    assert evd(twin, true_reward, policy) == first
    assert counted_hard_vi[-1] is twin and len(counted_hard_vi) == 4
    # tables are matched by value: an equal one hits, and one changed in
    # place after its solve is another table
    table = broadcast_rewards(true_reward.values, model.n_actions).copy()
    assert evd(twin, table, policy) == first
    assert len(counted_hard_vi) == 4
    table[0, 0] += 1.0
    evd(twin, table, policy)
    assert len(counted_hard_vi) == 5
    table[0, 0] -= 1.0
    assert evd(twin, table, policy) == first
    assert len(counted_hard_vi) == 6


def test_evd_failed_solve_stores_nothing(monkeypatch):
    model, true_reward = build_fixed_target(GridSpec(n=4, seed=0))
    policy = uniform_policy(model.n_states, model.n_actions)

    def failing(*args, **kwargs):
        raise MaxSweepsExceeded("no convergence", last_iterate=None,
                                residual=1.0)

    monkeypatch.setattr(metrics, "_optimal_memo", None)
    with monkeypatch.context() as patch:
        patch.setattr(metrics, "hard_value_iteration", failing)
        with pytest.raises(MaxSweepsExceeded):
            evd(model, true_reward, policy)
    assert metrics._optimal_memo is None
    assert evd(model, true_reward, policy) > 0.0


def test_evd_memo_does_not_keep_the_model_alive(monkeypatch):
    monkeypatch.setattr(metrics, "_optimal_memo", None)
    model, true_reward = build_fixed_target(GridSpec(n=4, seed=0))
    evd(model, true_reward, uniform_policy(model.n_states, model.n_actions))
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None


def test_soft_optimal_policy_beats_uniform():
    from ccpirl.envs import ObjectworldSpec, build_macro_cell, \
        build_objectworld

    cases = [
        build_fixed_target(GridSpec(n=5, seed=0)),
        build_macro_cell(GridSpec(n=6, seed=0, macro_size=2)),
        build_objectworld(ObjectworldSpec(n=6, seed=0)),
    ]
    for model, true_reward in cases:
        r = broadcast_rewards(true_reward.values, model.n_actions)
        soft = evd(model, true_reward, soft_optimal_policy(model, r))
        uni = evd(model, true_reward,
                  uniform_policy(model.n_states, model.n_actions))
        assert soft < uni


def test_trained_policy_regression_bound():
    model, true_reward = build_fixed_target(GridSpec(n=8, seed=0),
                                            discount=0.95)
    demos = generate_experts(model, true_reward, 64, 32, seed=1000)
    reward = LinearReward(np.zeros(model.features.feature_dim))
    report = train_maxent(model, demos, reward, GradientAscent(0.1), 50)
    # converged (gradient 0.039), unlike at larger steps, which run away
    assert report.records[-1].grad_norm < 0.1
    learned = evd(model, true_reward,
                  soft_optimal_policy(model, report.final_rewards))
    uni = evd(model, true_reward,
              uniform_policy(model.n_states, model.n_actions))
    # measured 0.372 uni (4.55 against 12.24); the bound leaves 8%
    assert learned < 0.4 * uni


BENCH_CSV_HEADER = ("algorithm,env,n_states,n_actions,beta,iterations,"
                    "trajectories,setup_s,total_s,nll,evd,seed,repeat")


def run_bench(tmp_path, name, cells, repeats=1):
    """Run ``ccpirl bench`` on a suite file of ``cells``; returns the exit
    code and the lines of the CSV it wrote."""
    suite = tmp_path / f"{name}.json"
    suite.write_text(json.dumps({"name": name, "cells": cells,
                                 "repeats": repeats, "warmup": False}))
    code = main(["bench", "--suite", str(suite),
                 "--out", str(tmp_path / "bench")])
    return code, (tmp_path / "bench" / f"{name}.csv").read_text().splitlines()


def test_eval_result_json_schema(tmp_path):
    # eval writes its four keys, scored as soft_optimal_policy scores the
    # checkpoint's reward
    model, true_reward = build_fixed_target(GridSpec(n=4, seed=0))
    demos = generate_experts(model, true_reward, 6, 12, seed=1)
    env = tmp_path / "env"
    assert main(["gen-env", "--env", "fixed", "--n", "4", "--seed", "0",
                 "--out", str(env)]) == 0
    save_trajectories(tmp_path / "demos.json", demos)
    save_checkpoint(tmp_path / "ckpt.json", LinearReward([0.5, -1.0]),
                    GradientAscent(0.1), 3)
    out = tmp_path / "eval.json"
    assert main(["eval", "--env-dir", str(env),
                 "--checkpoint", str(tmp_path / "ckpt.json"),
                 "--trajectories", str(tmp_path / "demos.json"),
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert list(data) == ["nll", "evd", "n_eval_trajectories",
                          "config_fingerprint"]
    policy = soft_optimal_policy(
        model, reward_table(model, LinearReward([0.5, -1.0])))
    assert data["nll"] == nll(policy, demos)
    assert data["evd"] == evd(model, true_reward, policy)
    assert data["n_eval_trajectories"] == 6
    assert len(data["config_fingerprint"]) == 16
    assert out.read_text() == json.dumps(data, indent=2)


def test_benchmark_smoke_suite(tmp_path):
    cell = BenchCell("fixed", 3, iterations=2, n_trajectories=6)
    shape, scores, speedup = bench_cell(cell, repeats=2, warmup=False)
    assert shape == (9, 4) and list(scores) == ["maxent", "ccp"]
    assert np.isfinite(speedup) and speedup > 0.0
    # each algorithm scores the soft-optimal policy of the learned reward, as
    # ``ccpirl eval`` does, not the policy of the trainer's last iteration
    model, true_reward = build_fixed_target(GridSpec(n=3, seed=0))
    demos = generate_experts(model, true_reward, 6, 12, seed=0)
    for algorithm, trainer in (("maxent", train_maxent), ("ccp", train_ccp)):
        times, cell_nll, cell_evd = scores[algorithm]
        assert len(times) == 2
        assert all(0.0 <= setup <= total and total > 0.0
                   for setup, total in times)
        report = trainer(model, demos, LinearReward(np.zeros(2)),
                         GradientAscent(0.1), 2)
        rewards = report.final_rewards
        vbar, _ = solve_soft_vi(model, rewards)
        policy = policy_from_values(choice_values(model, rewards, vbar))
        assert abs(cell_nll - nll(policy, demos)) < 1e-12
        assert abs(cell_evd - evd(model, true_reward, policy)) < 1e-12

    code, lines = run_bench(tmp_path, "smoke", [vars(cell)], repeats=2)
    assert code == 0
    assert lines[0] == BENCH_CSV_HEADER
    rows = list(csv.DictReader(lines))
    assert [(r["algorithm"], r["repeat"]) for r in rows] == [
        ("maxent", "0"), ("maxent", "1"), ("ccp", "0"), ("ccp", "1")]
    for row in rows:
        assert row["env"] == "fixed-n3" and row["n_states"] == "9"
        assert row["nll"] == f"{scores[row['algorithm']][1]:.10g}"
    config = json.loads((tmp_path / "bench" / "smoke.config.json").read_text())
    assert config["errors"] == []
    assert [key for key, _ in config["speedups"]] == [["fixed-n3", 0.9]]


def test_benchmark_records_cell_failures(tmp_path, capsys):
    # soft VI does not converge at beta 0.9999, so sampling the demos fails
    # inside the cell; the suite carries on with the next cell
    failing = {"env": "fixed", "n": 3, "beta": 0.9999}
    good = {"env": "macro", "n": 4, "macro_size": 2, "iterations": 2,
            "n_trajectories": 6}
    capsys.readouterr()
    code, lines = run_bench(tmp_path, "broken", [failing, good])
    assert code == 0
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["maxent", "macro-n4"], ["ccp", "macro-n4"]]
    config = json.loads(
        (tmp_path / "bench" / "broken.config.json").read_text())
    assert [e["env"] for e in config["errors"]] == ["fixed-n3"]
    assert config["errors"][0]["error"].startswith("MaxSweepsExceeded: ")
    assert [key for key, _ in config["speedups"]] == [["macro-n4", 0.9]]
    err = capsys.readouterr().err.splitlines()
    assert err == ["cell fixed-n3 failed: " + config["errors"][0]["error"]]


def test_write_benchmark_csv_skips_errors(tmp_path, capsys):
    # with no cell run, the CSV is the header alone and bench exits 3
    failing = {"env": "fixed", "n": 3, "beta": 0.9999}
    for name, cells in (("empty", []), ("all-failing", [failing])):
        capsys.readouterr()
        code, lines = run_bench(tmp_path, name, cells)
        assert code == 3
        assert lines == [BENCH_CSV_HEADER]
        assert "every benchmark cell failed" in capsys.readouterr().err
