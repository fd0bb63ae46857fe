import dataclasses
import itertools

import numpy as np
import pytest

from ccpirl.ccp import SmoothingConfig
from ccpirl.engine import (
    default_horizon,
    demo_state_visits,
    feature_expectations_from_visitation,
    forward_pass,
    load_checkpoint,
    save_checkpoint,
    train_ccp,
    train_maxent,
)
from ccpirl.envs import GridSpec, build_fixed_target, generate_experts
from ccpirl.errors import EmptyData, InvalidInput, NonFiniteGradient
from ccpirl.hotzmiller import build_operator, exante_value
from ccpirl.instrumentation import counters
from ccpirl.metrics import evd, soft_optimal_policy, uniform_policy
from ccpirl.model import (
    CCPTable,
    DdcModel,
    FeatureMatrix,
    SoftPolicy,
    Trajectory,
    TransitionModel,
)
from ccpirl.rewards import Adam, GradientAscent, LinearReward, MlpReward, \
    broadcast_rewards
from ccpirl.softdp import SoftDpConfig, choice_values, policy_from_values, \
    solve_soft_vi

from conftest import feature_expectations_from_demos, per_action, \
    random_model


def chain_model():
    t0 = np.array([[0.0, 1.0], [0.0, 1.0]])
    return DdcModel(
        n_states=2, n_actions=1,
        transitions=TransitionModel([t0]),
        discount=0.9,
        features=FeatureMatrix(np.eye(2)),
        initial_dist=np.array([1.0, 0.0]),
    )


def test_forward_pass_deterministic_chain():
    vis = forward_pass(chain_model(), np.ones((2, 1)), 1)
    assert np.allclose(vis.per_step[1], [0.0, 1.0])
    assert np.allclose(vis.total, [1.0, 1.0])


def test_forward_pass_goal_at_start_freezes_mass():
    model = DdcModel(
        n_states=2, n_actions=1,
        transitions=TransitionModel([np.eye(2)]),
        discount=0.9,
        features=FeatureMatrix(np.eye(2)),
        initial_dist=np.array([1.0, 0.0]),
        goal_states={0},
    )
    vis = forward_pass(model, np.ones((2, 1)), 3)
    assert np.allclose(vis.total, model.initial_dist)


def test_forward_pass_matches_exhaustive_enumeration():
    rng = np.random.default_rng(0)
    model = random_model(rng, n_states=3, n_actions=2)
    probs = rng.random((3, 2)) + 0.1
    probs /= probs.sum(axis=1, keepdims=True)
    n = 4
    vis = forward_pass(model, probs, n)

    total = np.zeros(3)
    mats = per_action(model.transitions)
    for seq in itertools.product(range(3), repeat=n + 1):
        p = model.initial_dist[seq[0]]
        for t in range(n):
            step = sum(probs[seq[t], a] * mats[a][seq[t], seq[t + 1]]
                       for a in range(2))
            p *= step
        for s in seq:
            total[s] += p
    assert np.allclose(vis.total, total, atol=1e-12)


def test_forward_pass_conserves_mass_without_goals():
    rng = np.random.default_rng(1)
    model = random_model(rng, n_states=5, n_actions=3)
    probs = rng.random((5, 3)) + 0.1
    probs /= probs.sum(axis=1, keepdims=True)
    vis = forward_pass(model, SoftPolicy(probs), 6)
    for layer in vis.per_step:
        assert abs(layer.sum() - 1.0) < 1e-12


def test_forward_pass_rejects_zero_horizon():
    with pytest.raises(ValueError):
        forward_pass(chain_model(), np.ones((2, 1)), 0)


def test_demo_feature_expectations_counting():
    feats = FeatureMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
    mu = feature_expectations_from_demos([Trajectory([(0, 0), (0, 0)])], feats)
    assert np.allclose(mu, [2.0, 0.0])


def test_demo_feature_expectations_average_over_trajectories():
    feats = FeatureMatrix(np.array([[1.0], [2.0]]))
    one = feature_expectations_from_demos([Trajectory([(0, 0), (1, 0)])], feats)
    two = feature_expectations_from_demos(
        [Trajectory([(0, 0), (1, 0)])] * 2, feats)
    assert np.allclose(one, two)


def test_demo_feature_expectations_naive_loop_oracle():
    rng = np.random.default_rng(2)
    feats = FeatureMatrix(rng.standard_normal((6, 3)))
    trajs = [Trajectory(np.column_stack([rng.integers(0, 6, 5),
                                         rng.integers(0, 2, 5)]))
             for _ in range(10)]
    mu = feature_expectations_from_demos(trajs, feats)
    oracle = np.zeros(3)
    for t in trajs:
        for s in t.states:
            oracle += feats.values[s]
    oracle /= len(trajs)
    assert np.allclose(mu, oracle)


def test_visitation_feature_expectations():
    feats = FeatureMatrix(np.array([[3.0]]))
    model = DdcModel(
        n_states=1, n_actions=1,
        transitions=TransitionModel([np.ones((1, 1))]),
        discount=0.9, features=feats, initial_dist=np.array([1.0]),
    )
    vis = forward_pass(model, np.ones((1, 1)), 1)
    assert np.allclose(feature_expectations_from_visitation(vis, feats), [6.0])


@pytest.mark.parametrize("state", [-1, 4])
def test_demo_state_visits_rejects_out_of_range_states(state):
    with pytest.raises(InvalidInput):
        demo_state_visits([Trajectory([(0, 0), (state, 1)])], 4)


def test_default_horizon_tracks_longest_demo():
    trajs = [Trajectory([(0, 0)]), Trajectory([(0, 0)] * 5)]
    assert default_horizon(trajs) == 4
    assert default_horizon([Trajectory([(0, 0)])]) == 1


def test_zero_iterations_reports_initial_nll_only():
    model, true_reward = build_fixed_target(GridSpec(n=4, seed=0))
    demos = generate_experts(model, true_reward, 8, 12, seed=1)
    for trainer in (train_maxent, train_ccp):
        reward = LinearReward(np.zeros(model.features.feature_dim))
        report = trainer(model, demos, reward, GradientAscent(0.1), 0)
        assert len(report.records) == 1
        assert np.isfinite(report.records[0].nll)
        assert np.isnan(report.records[0].grad_norm)
        assert np.allclose(reward.theta, 0.0)


def test_counters_prove_dp_avoidance():
    model, true_reward = build_fixed_target(GridSpec(n=4, seed=0))
    demos = generate_experts(model, true_reward, 8, 12, seed=1)
    counters.reset()
    reward = LinearReward(np.zeros(model.features.feature_dim))
    train_ccp(model, demos, reward, GradientAscent(0.1), 6)
    assert counters.soft_vi_solves == 0
    assert counters.operator_builds == 1
    assert counters.exante_evals == 6

    counters.reset()
    reward = LinearReward(np.zeros(model.features.feature_dim))
    train_maxent(model, demos, reward, GradientAscent(0.1), 6)
    assert counters.soft_vi_solves == 6
    assert counters.operator_builds == 0


def test_trained_evd_beats_uniform_by_wide_margin():
    model, true_reward = build_fixed_target(GridSpec(n=8, seed=0),
                                            discount=0.95)
    demos = generate_experts(model, true_reward, 64, 32, seed=1000)
    reward = LinearReward(np.zeros(model.features.feature_dim))
    report = train_maxent(model, demos, reward, GradientAscent(0.1), 50)
    learned = evd(model, true_reward,
                  soft_optimal_policy(model, report.final_rewards))
    baseline = evd(model, true_reward,
                   uniform_policy(model.n_states, model.n_actions))
    # measured 0.372 baseline (4.55 against 12.24)
    assert learned < 0.5 * baseline


def test_reparameterization_equivalence():
    # doubled features with quarter step size retrace the policy sequence
    model, true_reward = build_fixed_target(GridSpec(n=4, seed=3))
    demos = generate_experts(model, true_reward, 16, 12, seed=4)
    doubled = DdcModel(
        n_states=model.n_states, n_actions=model.n_actions,
        transitions=model.transitions, discount=model.discount,
        features=FeatureMatrix(2.0 * model.features.values),
        initial_dist=model.initial_dist, goal_states=model.goal_states,
    )
    r1 = LinearReward(np.zeros(2))
    rep1 = train_maxent(model, demos, r1, GradientAscent(0.4), 10)
    r2 = LinearReward(np.zeros(2))
    rep2 = train_maxent(doubled, demos, r2, GradientAscent(0.1), 10)
    nll1 = [rec.nll for rec in rep1.records]
    nll2 = [rec.nll for rec in rep2.records]
    assert np.allclose(nll1, nll2, atol=1e-9)
    assert np.allclose(rep1.final_policy.probs, rep2.final_policy.probs,
                       atol=1e-9)
    assert np.allclose(r1.theta, 2.0 * r2.theta, atol=1e-9)


def test_gradient_vanishes_at_optimum_with_exact_ccps():
    rng = np.random.default_rng(5)
    model = random_model(rng, n_states=4, n_actions=2, feature_dim=2,
                         beta=0.9)
    theta = np.array([0.8, -0.4])
    r = broadcast_rewards(model.features.values @ theta, model.n_actions)
    vbar, _ = solve_soft_vi(model, r, SoftDpConfig(tolerance=1e-12))
    expert = policy_from_values(choice_values(model, r, vbar))
    table = CCPTable(expert.probs,
                     np.zeros_like(expert.probs, dtype=np.int64))
    op = build_operator(model, table)
    ccp_policy = policy_from_values(
        choice_values(model, r, exante_value(op, r)))

    horizon = 6
    mu_demo = feature_expectations_from_visitation(
        forward_pass(model, expert, horizon), model.features)
    mu_model = feature_expectations_from_visitation(
        forward_pass(model, ccp_policy, horizon), model.features)
    assert np.max(np.abs(mu_demo - mu_model)) < 1e-3


def test_empty_demos_raise():
    model, _ = build_fixed_target(GridSpec(n=4, seed=0))
    reward = LinearReward(np.zeros(2))
    with pytest.raises(EmptyData):
        train_maxent(model, [], reward, GradientAscent(0.1), 1)
    with pytest.raises(EmptyData):
        demo_state_visits([], 16)


@pytest.mark.parametrize("trainer", [train_maxent, train_ccp])
def test_trainers_refuse_bad_models_and_iteration_counts(trainer):
    model, true_reward = build_fixed_target(GridSpec(n=4, seed=0))
    demos = generate_experts(model, true_reward, 4, 8, seed=1)
    unit = dataclasses.replace(model, discount=1.0)
    with pytest.raises(InvalidInput, match="discount must lie in"):
        trainer(unit, demos, LinearReward(np.zeros(2)), GradientAscent(0.1), 1)
    with pytest.raises(ValueError, match="iterations"):
        trainer(model, demos, LinearReward(np.zeros(2)), GradientAscent(0.1),
                -3)


def test_only_none_takes_the_default_horizon():
    model, true_reward = build_fixed_target(GridSpec(n=4, seed=0))
    demos = generate_experts(model, true_reward, 4, 8, seed=1)
    with pytest.raises(ValueError, match="horizon"):
        train_ccp(model, demos, LinearReward(np.zeros(2)), GradientAscent(0.1),
                  1, horizon=0)


def test_non_finite_gradient_raises():
    from ccpirl.engine import _gradient

    rng = np.random.default_rng(7)
    model = random_model(rng, n_states=2, n_actions=2, feature_dim=2)
    vis = forward_pass(model, np.full((2, 2), 0.5), 1)
    reward = LinearReward(np.zeros(2))
    mu_demo = np.array([np.inf, 0.0])
    with pytest.raises(NonFiniteGradient):
        _gradient(reward, model, mu_demo, np.ones(2), vis)


def test_report_csv_layout(tmp_path):
    model, true_reward = build_fixed_target(GridSpec(n=4, seed=0))
    demos = generate_experts(model, true_reward, 8, 12, seed=1)
    reward = LinearReward(np.zeros(model.features.feature_dim))
    report = train_ccp(model, demos, reward, GradientAscent(0.1), 3)
    path = tmp_path / "report.csv"
    report.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "iteration,nll,grad_norm,dp_seconds,total_seconds"
    assert len(lines) == 4
    assert report.total_seconds > 0.0


def test_checkpoint_round_trip_linear(tmp_path):
    reward = LinearReward([1.0, -2.0])
    opt = GradientAscent(0.3)
    path = tmp_path / "ck.json"
    save_checkpoint(path, reward, opt, iteration=7, seed=42)
    loaded_reward, loaded_opt, iteration, seed = load_checkpoint(path)
    assert isinstance(loaded_reward, LinearReward)
    assert np.allclose(loaded_reward.theta, reward.theta)
    assert loaded_opt.step_size == 0.3
    assert iteration == 7 and seed == 42


def test_checkpoint_round_trip_mlp(tmp_path):
    reward = MlpReward.init(3, hidden_width=4, seed=1)
    opt = Adam(step_size=0.01)
    opt.step(reward.param_dict(), {k: np.ones_like(np.asarray(v))
                                   for k, v in reward.param_dict().items()})
    path = tmp_path / "ck.json"
    save_checkpoint(path, reward, opt, iteration=3, seed=0)
    loaded_reward, loaded_opt, _, _ = load_checkpoint(path)
    assert np.allclose(loaded_reward.w1, reward.w1)
    assert np.allclose(loaded_reward.b2, reward.b2)
    assert loaded_opt.timestep == 1


def test_resumed_training_matches_uninterrupted(tmp_path):
    model, true_reward = build_fixed_target(GridSpec(n=4, seed=0))
    demos = generate_experts(model, true_reward, 16, 12, seed=2)

    straight = LinearReward(np.zeros(2))
    train_maxent(model, demos, straight, GradientAscent(0.2), 10)

    half = LinearReward(np.zeros(2))
    opt = GradientAscent(0.2)
    train_maxent(model, demos, half, opt, 5)
    path = tmp_path / "ck.json"
    save_checkpoint(path, half, opt, iteration=5)
    resumed, resumed_opt, start, _ = load_checkpoint(path)
    train_maxent(model, demos, resumed, resumed_opt, 5, start_iteration=start)
    assert np.allclose(resumed.theta, straight.theta, atol=1e-12)


def test_resumed_mlp_training_matches_uninterrupted(tmp_path):
    model, true_reward = build_fixed_target(GridSpec(n=4, seed=0))
    demos = generate_experts(model, true_reward, 16, 12, seed=2)

    straight = MlpReward.init(2, hidden_width=4, seed=0)
    train_ccp(model, demos, straight, Adam(1e-2), 8)

    half = MlpReward.init(2, hidden_width=4, seed=0)
    opt = Adam(1e-2)
    train_ccp(model, demos, half, opt, 4)
    path = tmp_path / "ck.json"
    save_checkpoint(path, half, opt, iteration=4)
    resumed, resumed_opt, start, _ = load_checkpoint(path)
    train_ccp(model, demos, resumed, resumed_opt, 4, start_iteration=start)
    for key in ("w1", "b1", "w2"):
        assert np.allclose(getattr(resumed, key), getattr(straight, key),
                           atol=1e-12)


def test_ccp_smoothing_reaches_the_operator():
    # the first iteration scores the zero reward under the operator built
    # from the CCPs that train_ccp's smoothing estimates
    model, true_reward = build_fixed_target(GridSpec(n=4, seed=0))
    demos = generate_experts(model, true_reward, 16, 12, seed=2)
    from ccpirl.ccp import estimate_ccp
    from ccpirl.metrics import nll

    zero = np.zeros((model.n_states, model.n_actions))
    nlls = []
    for alpha in (0.01, 0.5):
        smoothing = SmoothingConfig(alpha=alpha)
        report = train_ccp(model, demos, LinearReward(np.zeros(2)),
                           GradientAscent(0.1), 1, smoothing=smoothing)
        op = build_operator(model, estimate_ccp(
            demos, model.n_states, model.n_actions, smoothing))
        policy = policy_from_values(
            choice_values(model, zero, exante_value(op, zero)))
        assert report.records[0].nll == nll(policy, demos)
        nlls.append(report.records[0].nll)
    assert nlls[0] != nlls[1]
