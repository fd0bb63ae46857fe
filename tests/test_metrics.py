import csv
import dataclasses
import gc
import weakref

import numpy as np
import pytest

from ccpirl import metrics
from ccpirl.envs import GridSpec, build_fixed_target, generate_experts
from ccpirl.errors import EmptyData, InvalidInput, MaxSweepsExceeded
from ccpirl.metrics import (
    BENCH_CSV_HEADER,
    BenchCell,
    BenchSuiteConfig,
    EvalResult,
    evd,
    hard_value_iteration,
    nll,
    policy_evaluation,
    run_benchmark,
    soft_optimal_policy,
    uniform_policy,
    write_benchmark_csv,
)
from ccpirl.model import DdcModel, FeatureMatrix, SoftPolicy, Trajectory, \
    TransitionModel
from ccpirl.rewards import broadcast_rewards
from ccpirl.softdp import solve_policy

from conftest import random_model


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
            [m @ v for m in model.transitions.per_action])
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
    t_pi = sum(probs[:, a, None] * model.transitions.per_action[a]
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
        _, policy, _ = solve_policy(model, r)
        soft = evd(model, true_reward, policy)
        uni = evd(model, true_reward,
                  uniform_policy(model.n_states, model.n_actions))
        assert soft < uni


def test_trained_policy_regression_bound():
    from ccpirl.engine import train_maxent
    from ccpirl.rewards import GradientAscent, LinearReward

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


def test_eval_result_json_schema():
    result = EvalResult(nll=1.5, evd=0.2, n_eval_trajectories=8,
                        config_fingerprint="abc")
    data = result.to_json()
    assert set(data) == {"nll", "evd", "n_eval_trajectories",
                        "config_fingerprint"}


def test_benchmark_smoke_suite(tmp_path):
    from ccpirl.engine import train_ccp, train_maxent
    from ccpirl.rewards import GradientAscent, LinearReward

    suite = BenchSuiteConfig(
        "smoke",
        [BenchCell("fixed", 3, iterations=2, n_trajectories=6)],
        repeats=2, warmup=False,
    )
    records = run_benchmark(suite, output_dir=tmp_path)
    assert len(records) == 4  # 2 algorithms x 2 repeats
    assert all(not r.error for r in records)
    assert all(r.total_seconds > 0.0 for r in records)
    # each record scores the soft-optimal policy of the learned reward, as
    # ``ccpirl eval`` does, not the policy of the trainer's last iteration
    model, true_reward = build_fixed_target(GridSpec(n=3, seed=0))
    demos = generate_experts(model, true_reward, 6, 12, seed=0)
    for algorithm, trainer in (("maxent", train_maxent), ("ccp", train_ccp)):
        report = trainer(model, demos, LinearReward(np.zeros(2)),
                         GradientAscent(0.1), 2)
        _, policy, _ = solve_policy(model, report.final_rewards)
        for r in records:
            if r.algorithm == algorithm:
                assert abs(r.nll - nll(policy, demos)) < 1e-12
                assert abs(r.evd - evd(model, true_reward, policy)) < 1e-12
    speedups = {r.speedup for r in records}
    assert len(speedups) == 1 and np.isfinite(speedups.pop())

    csv_path = tmp_path / "smoke.csv"
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == BENCH_CSV_HEADER
    assert len(lines) == 5
    rows = list(csv.DictReader(lines))
    for row in rows:
        assert row["algorithm"] in ("maxent", "ccp")
        assert float(row["nll"]) > 0.0
    assert (tmp_path / "smoke.config.json").exists()


def test_benchmark_records_cell_failures(tmp_path):
    suite = BenchSuiteConfig(
        "broken",
        [BenchCell("nosuch", 4)],
        repeats=1, warmup=False,
    )
    records = run_benchmark(suite, output_dir=tmp_path)
    assert len(records) == 1
    assert "nosuch" in records[0].error or "unknown" in records[0].error
    lines = (tmp_path / "broken.csv").read_text().strip().split("\n")
    assert len(lines) == 1  # header only, failed rows excluded


def test_write_benchmark_csv_skips_errors(tmp_path):
    suite = BenchSuiteConfig("empty", [], repeats=1)
    path = write_benchmark_csv([], suite, tmp_path)
    assert open(path).read().strip() == BENCH_CSV_HEADER
