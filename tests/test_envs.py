import numpy as np
import pytest

from ccpirl.envs import (
    GridSpec,
    MOVES,
    ObjectworldSpec,
    TrueReward,
    build,
    build_fixed_target,
    build_macro_cell,
    build_objectworld,
    default_traj_length,
    expert_policy,
    generate_experts,
    load_true_reward,
    sample_trajectories,
    save_true_reward,
)
from ccpirl.metrics import hard_value_iteration
from ccpirl.model import DdcModel, FeatureMatrix, TransitionModel, \
    validate_model
from ccpirl.rewards import broadcast_rewards

from conftest import per_action, random_model


def test_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(n=1)
    with pytest.raises(ValueError):
        GridSpec(n=8, wind=1.0)
    with pytest.raises(ValueError):
        GridSpec(n=8, macro_size=3)
    with pytest.raises(ValueError):
        GridSpec(n=8, macro_size=0)
    with pytest.raises(ValueError):
        ObjectworldSpec(n=8, n_colors=1)


def test_no_wind_interior_move_is_deterministic():
    model, _ = build_fixed_target(GridSpec(n=4, wind=0.0, obstacle_density=0.0))
    # action 0 is north; interior cell (2, 1) = state 9 moves to (1, 1) = 5
    row = per_action(model.transitions)[0][9]
    assert row[5] == 1.0 and row.sum() == 1.0


def test_windy_corner_wall_bounce():
    wind = 0.3
    model, _ = build_fixed_target(GridSpec(n=4, wind=wind, obstacle_density=0.0))
    # top-left corner, action north (into the wall): intended move stays,
    # slip into north and west also stay, slip south and east leave
    row = per_action(model.transitions)[0][0]
    expect_stay = (1.0 - wind) + 2 * wind / 4.0
    assert abs(row[0] - expect_stay) < 1e-12
    assert abs(row[1] - wind / 4.0) < 1e-12  # east neighbor
    assert abs(row[4] - wind / 4.0) < 1e-12  # south neighbor


def _dense_windy(n, wind, n_actions, absorbing):
    """The dense construction the sparse triplets replace."""
    mats = [np.zeros((n * n, n * n)) for _ in range(n_actions)]

    def neighbor(row, col, move):
        r, c = row + move[0], col + move[1]
        return r * n + c if 0 <= r < n and 0 <= c < n else row * n + col

    for row in range(n):
        for col in range(n):
            x = row * n + col
            for a in range(n_actions):
                if x in absorbing or a >= 4:
                    mats[a][x, x] = 1.0
                    continue
                mats[a][x, neighbor(row, col, MOVES[a])] += 1.0 - wind
                for move in MOVES:
                    mats[a][x, neighbor(row, col, move)] += wind / 4.0
    return mats


def test_windy_transitions_equal_dense_construction_bitwise():
    fixed, _ = build_fixed_target(GridSpec(n=6, wind=0.3, seed=0))
    world, _ = build_objectworld(ObjectworldSpec(n=5, seed=0))
    for model, n, absorbing in ((fixed, 6, fixed.goal_states),
                                (world, 5, ())):
        want = _dense_windy(n, 0.3, model.n_actions, absorbing)
        for got, mat in zip(per_action(model.transitions), want):
            assert np.array_equal(got, mat)


def test_transition_rows_sum_to_one_everywhere():
    builders = [
        lambda: build_fixed_target(GridSpec(n=5, seed=1)),
        lambda: build_macro_cell(GridSpec(n=6, seed=1, macro_size=2)),
        lambda: build_objectworld(ObjectworldSpec(n=6, seed=1)),
    ]
    for build in builders:
        model, _ = build()
        for mat in per_action(model.transitions):
            assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-12)


def test_all_environments_validate_clean():
    model, _ = build_fixed_target(GridSpec(n=6, seed=0))
    assert validate_model(model) == []
    model, _ = build_macro_cell(GridSpec(n=8, seed=0, macro_size=2))
    assert validate_model(model) == []
    model, _ = build_objectworld(ObjectworldSpec(n=8, seed=0))
    assert validate_model(model) == []


def test_fixed_target_is_absorbing_and_rewarded():
    spec = GridSpec(n=5, seed=3)
    model, true_reward = build_fixed_target(spec)
    target = 24  # far corner by default
    assert target in model.goal_states
    for mat in per_action(model.transitions):
        assert mat[target, target] == 1.0
    assert true_reward.values[target] == 1.0
    obstacles = true_reward.provenance["obstacles"]
    assert all(true_reward.values[x] == -1.0 for x in obstacles)
    assert model.initial_dist[target] == 0.0


def test_fixed_target_features():
    model, true_reward = build_fixed_target(GridSpec(n=5, seed=3))
    feats = model.features.values
    assert feats.shape == (25, 2)
    # negated normalized Manhattan distance: 0 at target, -1 at far corner
    assert feats[24, 0] == 0.0
    assert feats[0, 0] == -1.0
    obstacles = set(true_reward.provenance["obstacles"])
    for x in range(25):
        assert feats[x, 1] == (1.0 if x in obstacles else 0.0)


def test_fixed_target_is_the_far_corner():
    model, true_reward = build_fixed_target(GridSpec(n=4, seed=0))
    assert model.goal_states == {15}
    assert true_reward.values[15] == 1.0
    assert true_reward.provenance["target"] == [3, 3]


def test_macro_cell_feature_dimension():
    model, _ = build_macro_cell(GridSpec(n=16, seed=0, macro_size=2))
    assert model.features.feature_dim == 64


def test_macro_cell_regions_share_features_and_reward():
    model, true_reward = build_macro_cell(GridSpec(n=8, seed=5, macro_size=2))
    feats = model.features.values
    for row in range(0, 8, 2):
        for col in range(0, 8, 2):
            cells = [(row + dr) * 8 + (col + dc)
                     for dr in range(2) for dc in range(2)]
            base = cells[0]
            for c in cells[1:]:
                assert np.array_equal(feats[c], feats[base])
                assert true_reward.values[c] == true_reward.values[base]
    assert np.allclose(feats.sum(axis=1), 1.0)  # one-hot


def test_macro_cell_positive_region_rate():
    # each of 16 regions is positive with probability 0.1
    hits = []
    for seed in range(200):
        _, true_reward = build_macro_cell(GridSpec(n=8, seed=seed,
                                                   macro_size=2))
        hits.append(sum(1 for r in true_reward.provenance["region_rewards"]
                        if r > 0))
    mean = np.mean(hits)
    # mean of 200 Binomial(16, 0.1) draws: 1.6 with std of the mean 0.085
    assert 1.25 < mean < 1.95


def test_objectworld_reward_rule_brute_force():
    spec = ObjectworldSpec(n=8, seed=2)
    model, true_reward = build_objectworld(spec)
    prov = true_reward.provenance
    cells = prov["cells"]
    outer = prov["outer"]
    for x in range(model.n_states):
        row, col = divmod(x, 8)
        d0 = min((abs(row - c // 8) + abs(col - c % 8)
                  for c, o in zip(cells, outer) if o == 0), default=99)
        d1 = min((abs(row - c // 8) + abs(col - c % 8)
                  for c, o in zip(cells, outer) if o == 1), default=99)
        if d0 <= 3 and d1 <= 2:
            expect = 1.0
        elif d0 <= 3:
            expect = -1.0
        else:
            expect = 0.0
        assert true_reward.values[x] == expect
    assert set(np.unique(true_reward.values)) <= {-1.0, 0.0, 1.0}


def test_objectworld_reward_has_both_signs_somewhere():
    found = set()
    for seed in range(10):
        _, true_reward = build_objectworld(ObjectworldSpec(n=10, seed=seed))
        found |= set(np.unique(true_reward.values))
    assert {-1.0, 1.0} <= found


def test_objectworld_missing_color_distance_is_max():
    # force every object to inner/outer color 0 by brute seed search
    for seed in range(50):
        spec = ObjectworldSpec(n=6, n_colors=2, n_objects=2, seed=seed)
        model, true_reward = build_objectworld(spec)
        prov = true_reward.provenance
        if all(o == 0 for o in prov["outer"]):
            assert np.all(model.features.values[:, 3] == 2.0 * (6 - 1))
            return
    pytest.fail("no seed produced outer colors all zero")


def test_objectworld_stay_action_is_deterministic():
    model, _ = build_objectworld(ObjectworldSpec(n=6, seed=0))
    assert model.n_actions == 5
    assert np.array_equal(per_action(model.transitions)[4], np.eye(36))


def test_default_traj_length():
    assert default_traj_length("fixed", 8) == 32
    assert default_traj_length("macro", 16) == 16
    assert default_traj_length("macro", 4) == 8


def test_experts_single_state_model():
    model = DdcModel(
        n_states=1, n_actions=2,
        transitions=TransitionModel([np.ones((1, 1))] * 2),
        discount=0.9,
        features=FeatureMatrix(np.zeros((1, 1))),
        initial_dist=np.array([1.0]),
    )
    trajs = generate_experts(model, TrueReward(np.zeros(1)), 3, 5, seed=0)
    assert len(trajs) == 3
    for t in trajs:
        assert np.all(t.states == 0)
        assert len(t) == 5


def test_experts_deterministic_per_seed():
    model, true_reward = build_fixed_target(GridSpec(n=4, seed=0))
    a = generate_experts(model, true_reward, 5, 10, seed=7)
    b = generate_experts(model, true_reward, 5, 10, seed=7)
    c = generate_experts(model, true_reward, 5, 10, seed=8)
    assert all(np.array_equal(x.steps, y.steps) for x, y in zip(a, b))
    assert any(not np.array_equal(x.steps, y.steps) for x, y in zip(a, c))


def test_experts_stop_after_goal_step():
    model, true_reward = build_fixed_target(GridSpec(n=3, seed=0,
                                                     obstacle_density=0.0))
    trajs = generate_experts(model, true_reward, 20, 50, seed=1)
    goal = next(iter(model.goal_states))
    for t in trajs:
        hits = np.flatnonzero(t.states == goal)
        if hits.size:
            assert hits[0] == len(t) - 1  # recorded once, then stopped


def _choice_walks(model, policy, n_trajectories, traj_length, seed):
    """The per-step sampler: one rng.choice(p=) call per draw."""
    csr = model.transitions.csr
    walks = []
    for stream in np.random.SeedSequence(seed).spawn(n_trajectories):
        rng = np.random.default_rng(stream)
        x = rng.choice(model.n_states, p=model.initial_dist)
        steps = []
        for _ in range(traj_length):
            a = rng.choice(model.n_actions, p=policy[x])
            steps.append((x, a))
            if x in model.goal_states:
                break
            i = a * model.n_states + x
            lo, hi = csr.indptr[i], csr.indptr[i + 1]
            x = rng.choice(csr.indices[lo:hi], p=csr.data[lo:hi])
        walks.append(np.array(steps, dtype=np.int64))
    return walks


def _assert_same_walks(got, want):
    assert len(got) == len(want)
    for traj, steps in zip(got, want):
        assert np.array_equal(traj.steps, steps)


@pytest.mark.parametrize("mode", ["soft", "hard-eps"])
@pytest.mark.parametrize("kind,n,traj_length", [
    ("fixed", 6, 24), ("macro", 8, 8), ("objectworld", 8, 12),
    ("fixed", 5, 1), ("macro", 4, 1),
])
def test_experts_equal_per_step_choice_sampler(kind, n, traj_length, mode):
    model, true_reward = build(kind, n, discount=0.9, seed=2, macro_size=2)
    policy = expert_policy(model, true_reward, mode)
    for seed in (0, 1, 17, 2024):
        got = generate_experts(model, true_reward, 12, traj_length, seed,
                               mode=mode)
        _assert_same_walks(got, _choice_walks(model, policy, 12, traj_length,
                                              seed))


def test_goal_terminated_walks_equal_per_step_choice_sampler():
    model, true_reward = build_fixed_target(GridSpec(n=3, seed=0,
                                                     obstacle_density=0.0))
    policy = expert_policy(model, true_reward)
    got = generate_experts(model, true_reward, 40, 50, seed=1)
    want = _choice_walks(model, policy, 40, 50, seed=1)
    _assert_same_walks(got, want)
    # most walks stop at the goal, at different steps
    lengths = {len(t) for t in got}
    assert len(lengths) > 3 and max(lengths) < 50


def test_random_model_walks_equal_per_step_choice_sampler():
    rng = np.random.default_rng(5)
    model = random_model(rng, n_states=9, n_actions=3, goal_states=(4,))
    policy = rng.random((9, 3))
    policy /= policy.sum(axis=1, keepdims=True)
    for seed in range(5):
        _assert_same_walks(sample_trajectories(model, policy, 10, 15, seed),
                           _choice_walks(model, policy, 10, 15, seed))


@pytest.mark.parametrize("change,message", [
    (lambda p: p.__setitem__((3, 0), -0.1), "non-negative"),
    (lambda p: p.__setitem__((3, 0), p[3, 0] + 1e-6), "sum to 1"),
    (lambda p: p.__setitem__((0, 1), np.nan), "non-negative"),
])
def test_sampler_rejects_bad_policy_rows(change, message):
    model, true_reward = build_fixed_target(GridSpec(n=4, seed=0))
    policy = expert_policy(model, true_reward).copy()
    change(policy)
    with pytest.raises(ValueError, match=message):
        sample_trajectories(model, policy, 3, 5, seed=0)


def test_sampler_rejects_bad_start_distribution():
    model, true_reward = build_fixed_target(GridSpec(n=4, seed=0))
    start = model.initial_dist * 0.5
    bad = DdcModel(model.n_states, model.n_actions, model.transitions,
                   model.discount, model.features, start, model.goal_states)
    with pytest.raises(ValueError, match="initial state"):
        generate_experts(bad, true_reward, 3, 5, seed=0)


def test_sampler_accepts_rounding_within_choice_tolerance():
    model, true_reward = build_fixed_target(GridSpec(n=4, seed=0))
    policy = expert_policy(model, true_reward).copy()
    policy[3] *= 1.0 + 1e-9
    _assert_same_walks(sample_trajectories(model, policy, 6, 10, seed=3),
                       _choice_walks(model, policy, 6, 10, seed=3))


@pytest.mark.parametrize("traj_length", [0, -2])
def test_experts_reject_nonpositive_length(traj_length):
    model, true_reward = build_fixed_target(GridSpec(n=4, seed=0))
    with pytest.raises(ValueError):
        generate_experts(model, true_reward, 3, traj_length, seed=0)


def test_corridor_experts_track_hard_optimal_policy():
    # 6-state corridor, strong terminal reward, beta = 0.95
    n = 6
    left = np.zeros((n, n))
    right = np.zeros((n, n))
    for i in range(n):
        left[i, max(i - 1, 0)] = 1.0
        right[i, min(i + 1, n - 1)] = 1.0
    rewards = np.full(n, -1.0)
    rewards[n - 1] = 10.0
    model = DdcModel(
        n_states=n, n_actions=2,
        transitions=TransitionModel([left, right]),
        discount=0.95,
        features=FeatureMatrix(np.eye(n)),
        initial_dist=np.full(n, 1.0 / n),
    )
    true_reward = TrueReward(rewards)
    _, greedy = hard_value_iteration(model,
                                     broadcast_rewards(rewards, 2))
    optimal = greedy.probs.argmax(axis=1)
    trajs = generate_experts(model, true_reward, 50, 10, seed=3)
    total = matched = 0
    for t in trajs:
        for s, a in t.steps:
            total += 1
            matched += int(a == optimal[s])
    assert matched / total >= 0.9


def test_true_reward_round_trip(tmp_path):
    _, true_reward = build_macro_cell(GridSpec(n=4, seed=1, macro_size=2))
    path = tmp_path / "r.json"
    save_true_reward(path, true_reward)
    loaded = load_true_reward(path)
    assert np.allclose(loaded.values, true_reward.values)
    assert loaded.provenance["rule"] == "macro-cell"


def test_moves_cover_four_directions():
    assert len(MOVES) == 4
    assert set(MOVES) == {(-1, 0), (1, 0), (0, 1), (0, -1)}
