"""Each correctness check of the benchmark passes on good outputs and fails
on a broken one."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import spans
import workloads
from ccpirl import engine, envs, hotzmiller, metrics, softdp
from ccpirl.instrumentation import counters
from ccpirl.model import CCPTable, SoftPolicy
from ccpirl.rewards import GradientAscent, LinearReward, broadcast_rewards

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


@pytest.fixture(scope="module")
def grid():
    model, true_reward = envs.build_fixed_target(envs.GridSpec(n=5, seed=0),
                                                 discount=0.9)
    demos = envs.generate_experts(model, true_reward, 16, 20, seed=3)
    return model, true_reward, demos


def soft_optimal(model, true_reward):
    r = broadcast_rewards(true_reward.values, model.n_actions)
    vbar, _ = softdp.solve_soft_vi(model, r, softdp.SoftDpConfig(
        tolerance=workloads.REFERENCE_VI_TOL, max_sweeps=100000))
    return r, vbar, softdp.policy_from_values(
        softdp.choice_values(model, r, vbar))


def test_policy_rows():
    good = np.array([[0.25, 0.75], [0.5, 0.5]])
    assert checks.policy_rows("p", good).ok
    assert not checks.policy_rows("p", [[0.2, 0.7], [0.5, 0.5]]).ok  # 0.9
    assert not checks.policy_rows("p", [[0.0, 1.0], [0.5, 0.5]]).ok


def test_forward_mass(grid):
    model, true_reward, demos = grid
    _, _, policy = soft_optimal(model, true_reward)
    vis = engine.forward_pass(model, policy, 10)
    masses = [layer.sum() for layer in vis.per_step]
    assert checks.forward_mass("f", masses, conserving=False).ok
    assert not checks.forward_mass("f", masses, conserving=True).ok
    assert not checks.forward_mass("f", [1.0, 0.9, 0.95], False).ok
    assert checks.forward_mass("f", [1.0, 1.0, 1.0], True).ok


@pytest.mark.parametrize("n", [5, 17])  # explicit-inverse and LU branches
def test_hotz_miller_identity_needs_the_right_ccps(n):
    model, true_reward = envs.build_fixed_target(envs.GridSpec(n=n, seed=0),
                                                 discount=0.95)
    r, vbar, policy = soft_optimal(model, true_reward)

    def value_with(probs):
        table = CCPTable(probs, np.zeros(probs.shape, dtype=np.int64))
        op = hotzmiller.build_operator(model, table)
        return hotzmiller.exante_value(op, r).values

    assert checks.hotz_miller_identity("h", value_with(policy.probs),
                                       vbar.values).ok
    uniform = metrics.uniform_policy(model.n_states, model.n_actions).probs
    assert not checks.hotz_miller_identity("h", value_with(uniform),
                                           vbar.values).ok


def test_hard_vi_against_its_greedy_policy(grid):
    model, true_reward, _ = grid
    tol = workloads.HARD_VI_TOL
    v, greedy = metrics.hard_value_iteration(model, true_reward, tolerance=tol)
    v_greedy = metrics.policy_evaluation(model, true_reward, greedy)
    assert checks.hard_vi_consistent("v", v, v_greedy, tol, model.discount).ok
    assert not checks.hard_vi_consistent("v", v + 1e-3, v_greedy, tol,
                                         model.discount).ok


def test_evd_range_rejects_a_policy_worse_than_uniform(grid):
    model, true_reward, _ = grid
    uniform = metrics.evd(model, true_reward, metrics.uniform_policy(
        model.n_states, model.n_actions))
    _, _, policy = soft_optimal(model, true_reward)
    good = metrics.evd(model, true_reward, policy)
    # the soft-optimal policy of the negated reward heads away from the goal
    _, _, away = soft_optimal(model, envs.TrueReward(-true_reward.values))
    bad = metrics.evd(model, true_reward, away)
    assert checks.evd_range("e", good, uniform, 1e-6).ok
    assert not checks.evd_range("e", bad, uniform, 1e-6).ok
    assert not checks.evd_range("e", -1e-3, uniform, 1e-6).ok


def test_nll_below_uniform(grid):
    model, true_reward, demos = grid
    mean_length = np.mean([len(t) for t in demos])
    _, _, policy = soft_optimal(model, true_reward)
    uniform = metrics.uniform_policy(model.n_states, model.n_actions)
    assert metrics.nll(uniform, demos) == pytest.approx(
        checks.uniform_nll(mean_length, model.n_actions))
    assert checks.nll_below_uniform("n", metrics.nll(policy, demos),
                                    mean_length, model.n_actions).ok
    assert not checks.nll_below_uniform("n", metrics.nll(uniform, demos),
                                        mean_length, model.n_actions).ok


def test_parity():
    assert checks.parity("p", 3.5, 3.4, 4.4).ok
    assert not checks.parity("p", 3.9, 3.4, 4.4).ok


def test_cost_model(grid):
    model, _, demos = grid
    before = counters.snapshot()
    engine.train_ccp(model, demos, LinearReward(np.zeros(2)),
                     GradientAscent(0.1), 3)
    after = counters.snapshot()
    delta = {k: after[k] - before[k] for k in after}
    assert checks.cost_model("c", delta, 0, 1).ok
    # a ccp training that made one soft-VI solve
    assert not checks.cost_model("c", dict(delta, soft_vi_solves=1), 0, 1).ok


def test_eval_sample_only_when_both_scorings_ran(grid):
    model, true_reward, demos = grid
    report = engine.train_maxent(model, demos, LinearReward(np.zeros(2)),
                                 GradientAscent(0.1), 2)
    run = workloads.Run(spans.Tracer())
    workloads.score_both(run, model, true_reward, demos,
                         {"ccp": None, "maxent": report})
    assert (run.attempted, run.failed, run.times["eval_s"]) == (2, 1, [])
    workloads.score_both(run, model, true_reward, demos,
                         {"ccp": report, "maxent": report})
    assert (run.attempted, run.failed) == (4, 1)
    assert len(run.times["eval_s"]) == 1


def test_call_site_that_bypasses_a_traced_name_is_caught(grid):
    model, true_reward, demos = grid
    r = broadcast_rewards(true_reward.values, model.n_actions)
    original = softdp.solve_soft_vi
    tracer = spans.Tracer()
    tracer.install([("ccpirl.engine", "solve_soft_vi", "softdp.solve"),
                    ("ccpirl.engine", "no_such_function", "engine.train")])
    try:
        assert tracer.absent == ["ccpirl.engine.no_such_function"]
        tracer.active = True
        before = counters.snapshot()
        engine.train_maxent(model, demos, LinearReward(np.zeros(2)),
                            GradientAscent(0.1), 2)
        delta = {k: counters.snapshot()[k] - before[k] for k in before}
        counts = spans.layer_counts(tracer.spans)
        assert checks.spans_match_counters("s", counts, delta,
                                           spans.COUNTED_LAYERS).ok
        original(model, r)  # reaches soft VI through an untraced name
        delta = {k: counters.snapshot()[k] - before[k] for k in before}
        assert not checks.spans_match_counters("s", counts, delta,
                                               spans.COUNTED_LAYERS).ok
        assert [s.info["sweeps"] for s in tracer.spans] and all(
            s.info["sweeps"] > 0 for s in tracer.spans)
    finally:
        tracer.uninstall()
    assert softdp.solve_soft_vi is original
    assert engine.solve_soft_vi is original


def test_self_seconds_subtract_direct_children():
    s = [spans.Span(0, "a", "engine.train", 0.0, None, 10.0),
         spans.Span(1, "b", "engine.forward", 1.0, 0, 4.0),
         spans.Span(2, "c", "softdp.solve", 5.0, 0, 6.0),
         spans.Span(3, "d", "softdp.policy", 2.0, 1, 3.0)]
    own = spans.self_seconds(s)
    assert own == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert spans.layer_metrics(s)["engine.train_self_s"][0] == 6.0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = [w["name"] for w in spec["workloads"]]
    assert listed == list(workloads.WORKLOADS)
    per_layer = spans.layer_metrics([])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: unit for k, (_, unit) in per_layer.items()}
    run = workloads.Run(spans.Tracer())
    run.setup_s = 1.0
    for key in run.times:
        run.times[key].append(1.0)
    run.scores = {a: workloads.Scored(None, 1.0, 1.0) for a in ("ccp", "maxent")}
    run.info["peak_rss_mb"] = 1.0
    e2e = workloads.end_to_end_metrics(run)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: unit for k, (_, unit) in e2e.items()}


def test_run_fails_without_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "irlbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "irlbench/run.py", "--workload", "fixed32-b95",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
