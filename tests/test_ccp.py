import numpy as np
import pytest

from ccpirl.ccp import (
    SmoothingConfig,
    count_pairs,
    estimate_ccp,
    expected_shock,
    load_ccp,
    save_ccp,
)
from ccpirl.errors import EmptyData, InvalidInput, NonPositiveProbability
from ccpirl.model import SoftPolicy, Trajectory
from ccpirl.softdp import EULER_GAMMA


def test_count_pairs_basic():
    trajs = [Trajectory([(0, 1), (0, 1), (2, 0)])]
    counts = count_pairs(trajs, 3, 2)
    assert counts[0, 1] == 2
    assert counts[2, 0] == 1
    assert counts.sum() == 3


@pytest.mark.parametrize("steps", [
    [[-1, 0], [0, 1]],  # a negative state used to wrap to state |X|-1
    [[0, 0], [4, 1]],   # state == |X|
    [[0, 0], [1, 2]],   # action == |A|
    [[0, -1]],          # negative action
])
def test_count_pairs_rejects_out_of_range_indices(steps):
    with pytest.raises(InvalidInput):
        count_pairs([Trajectory(steps)], 4, 2)


def test_count_pairs_is_commutative_merge():
    rng = np.random.default_rng(0)
    trajs = [Trajectory(np.column_stack([rng.integers(0, 4, 6),
                                         rng.integers(0, 3, 6)]))
             for _ in range(8)]
    whole = count_pairs(trajs, 4, 3)
    sharded = count_pairs(trajs[:3], 4, 3) + count_pairs(trajs[3:], 4, 3)
    assert np.array_equal(whole, sharded)


def test_estimate_degenerate_mle_limit():
    trajs = [Trajectory([(0, 1), (0, 1)])]
    table = estimate_ccp(trajs, 1, 2, SmoothingConfig(alpha=1e-9))
    assert table.probs[0, 1] > 1.0 - 1e-8


def test_estimate_additive_formula():
    # counts {a0: 3, a1: 1} at one state, alpha = 1, |A| = 2
    trajs = [Trajectory([(0, 0), (0, 0), (0, 0), (0, 1)])]
    table = estimate_ccp(trajs, 1, 2, SmoothingConfig(alpha=1.0))
    assert np.allclose(table.probs, [[4 / 6, 2 / 6]])
    assert np.array_equal(table.support_counts, [[3, 1]])


def test_estimate_rows_normalized_and_positive():
    rng = np.random.default_rng(1)
    trajs = [Trajectory(np.column_stack([rng.integers(0, 6, 4),
                                         rng.integers(0, 3, 4)]))
             for _ in range(5)]
    for cfg in (SmoothingConfig("additive", 0.01),
                SmoothingConfig("uniform-fallback")):
        table = estimate_ccp(trajs, 6, 3, cfg)
        assert np.allclose(table.probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(table.probs > 0.0)


def test_estimate_unvisited_states_are_uniform():
    trajs = [Trajectory([(0, 0)])]
    for cfg in (SmoothingConfig("additive", 0.01),
                SmoothingConfig("uniform-fallback")):
        table = estimate_ccp(trajs, 3, 2, cfg)
        assert np.allclose(table.probs[1], [0.5, 0.5])
        assert np.allclose(table.probs[2], [0.5, 0.5])


def test_estimate_single_step_dataset():
    table = estimate_ccp([Trajectory([(1, 2)])], 2, 3)
    assert np.allclose(table.probs.sum(axis=1), 1.0)
    assert table.support_counts[1, 2] == 1


def test_estimate_empty_raises():
    with pytest.raises(EmptyData):
        estimate_ccp([], 2, 2)


def test_smoothing_config_validation():
    with pytest.raises(ValueError):
        SmoothingConfig(mode="bogus")
    with pytest.raises(ValueError):
        SmoothingConfig(alpha=0.0)


def _sample_from_policy(policy, n_trajs, length, seed):
    """Uniform-random state each step, action from the policy row."""
    rng = np.random.default_rng(seed)
    n_states, n_actions = policy.shape
    out = []
    for _ in range(n_trajs):
        steps = []
        for _ in range(length):
            x = rng.integers(0, n_states)
            a = rng.choice(n_actions, p=policy[x])
            steps.append((x, a))
        out.append(Trajectory(steps))
    return out


def test_estimate_consistency_with_sample_size():
    rng = np.random.default_rng(2)
    policy = rng.random((4, 3)) + 0.2
    policy /= policy.sum(axis=1, keepdims=True)
    errors = {}
    for n in (50, 500, 5000):
        trajs = _sample_from_policy(policy, n, 4, seed=n)
        table = estimate_ccp(trajs, 4, 3, SmoothingConfig(alpha=1e-6))
        errors[n] = np.max(np.abs(table.probs - policy))
    assert errors[500] < 0.08
    assert errors[5000] < errors[50]


def test_expected_shock_certain_action():
    assert np.allclose(expected_shock(np.array([[1.0]])), EULER_GAMMA)


def test_expected_shock_half():
    out = expected_shock(np.array([[0.5, 0.5]]))
    assert np.allclose(out, EULER_GAMMA + np.log(2.0))
    assert abs(out[0, 0] - 1.270363) < 1e-6


def test_expected_shock_elementwise_oracle():
    rng = np.random.default_rng(3)
    trajs = _sample_from_policy(np.full((3, 2), 0.5), 20, 5, seed=9)
    table = estimate_ccp(trajs, 3, 2)
    out = expected_shock(table)
    for x in range(3):
        for a in range(2):
            assert abs(out[x, a] - (EULER_GAMMA - np.log(table.probs[x, a]))) < 1e-12


def test_expected_shock_monotone_and_bounded():
    sigmas = np.linspace(0.01, 1.0, 50).reshape(1, -1)
    out = expected_shock(sigmas)
    assert np.all(np.diff(out[0]) < 0)
    assert np.all(out >= EULER_GAMMA - 1e-12)


def test_expected_shock_rejects_zero_probability():
    with pytest.raises(NonPositiveProbability):
        expected_shock(np.array([[0.0, 1.0]]))


def test_save_load_round_trip(tmp_path):
    trajs = [Trajectory([(0, 1), (1, 0), (0, 0)])]
    table = estimate_ccp(trajs, 2, 2)
    path = tmp_path / "ccp.json"
    save_ccp(path, table, SmoothingConfig())
    loaded = load_ccp(path)
    assert np.allclose(loaded.probs, table.probs)
    assert np.array_equal(loaded.support_counts, table.support_counts)
