import numpy as np
import pytest

from ccpirl.errors import MaxSweepsExceeded
from ccpirl.model import DdcModel, FeatureMatrix, TransitionModel
from ccpirl.softdp import (
    EULER_GAMMA,
    SoftDpConfig,
    choice_values,
    logsumexp_rows,
    policy_from_values,
    solve_soft_vi,
)

from conftest import per_action, random_model, soft_bellman_backup


def tiny_model(n_actions, beta):
    one = np.ones((1, 1))
    return DdcModel(
        n_states=1, n_actions=n_actions,
        transitions=TransitionModel([one] * n_actions),
        discount=beta,
        features=FeatureMatrix(np.zeros((1, 1))),
        initial_dist=np.array([1.0]),
    )


def test_backup_single_state_two_actions_beta_zero():
    model = tiny_model(2, 0.0)
    out = soft_bellman_backup(model, np.zeros((1, 2)), np.zeros(1))
    assert np.allclose(out.values, np.log(2.0) + EULER_GAMMA)


def test_backup_fixed_point_single_action():
    model = tiny_model(1, 0.9)
    v = np.array([EULER_GAMMA / 0.1])
    out = soft_bellman_backup(model, np.zeros((1, 1)), v)
    assert np.allclose(out.values, v)


def test_backup_matches_naive_unshifted_evaluation():
    rng = np.random.default_rng(0)
    model = random_model(rng, n_states=4, n_actions=3)
    r = rng.standard_normal((4, 3))
    v = rng.standard_normal(4)
    out = soft_bellman_backup(model, r, v)
    naive = np.zeros(4)
    for x in range(4):
        total = 0.0
        for a in range(3):
            q = r[x, a] \
                + model.discount * per_action(model.transitions)[a][x] @ v
            total += np.exp(q)
        naive[x] = np.log(total) + EULER_GAMMA
    assert np.allclose(out.values, naive, atol=1e-10)


def test_backup_rejects_wrong_reward_shape():
    with pytest.raises(ValueError):
        soft_bellman_backup(tiny_model(2, 0.5), np.zeros((2, 2)), np.zeros(1))


def test_backup_is_contraction():
    rng = np.random.default_rng(5)
    for _ in range(20):
        beta = rng.uniform(0.1, 0.99)
        model = random_model(rng, n_states=6, n_actions=3, beta=beta)
        r = rng.standard_normal((6, 3))
        u = rng.standard_normal(6) * 5
        v = rng.standard_normal(6) * 5
        du = soft_bellman_backup(model, r, u).values
        dv = soft_bellman_backup(model, r, v).values
        assert np.max(np.abs(du - dv)) <= beta * np.max(np.abs(u - v)) + 1e-12


def test_solve_single_state_closed_form():
    model = tiny_model(1, 0.9)
    vbar, sweeps = solve_soft_vi(model, np.zeros((1, 1)),
                                 SoftDpConfig(tolerance=1e-10))
    assert np.allclose(vbar.values, EULER_GAMMA / 0.1, atol=1e-8)
    assert sweeps > 0


def test_solve_beta_zero_converges_immediately():
    rng = np.random.default_rng(1)
    model = random_model(rng, n_states=4, n_actions=3, beta=0.0)
    r = rng.standard_normal((4, 3))
    vbar, sweeps = solve_soft_vi(model, r)
    assert sweeps <= 2
    expected = np.log(np.exp(r).sum(axis=1)) + EULER_GAMMA
    assert np.allclose(vbar.values, expected)


def test_solve_matches_over_iteration_oracle():
    from ccpirl.envs import GridSpec, build_fixed_target
    from ccpirl.rewards import broadcast_rewards

    model, true_reward = build_fixed_target(GridSpec(n=5, seed=2))
    r = broadcast_rewards(true_reward.values, model.n_actions)
    vbar, _ = solve_soft_vi(model, r, SoftDpConfig(tolerance=1e-10))

    v = np.zeros(model.n_states)
    for _ in range(10000):
        v = soft_bellman_backup(model, r, v).values
    assert np.max(np.abs(vbar.values - v)) < 1e-8


def test_solve_raises_with_last_iterate():
    model = tiny_model(1, 0.9)
    with pytest.raises(MaxSweepsExceeded) as exc:
        solve_soft_vi(model, np.zeros((1, 1)), SoftDpConfig(max_sweeps=3))
    assert exc.value.last_iterate is not None
    assert exc.value.residual > 0


def test_solve_warm_start_from_fixed_point():
    model = tiny_model(1, 0.9)
    v0 = np.array([EULER_GAMMA / 0.1])
    _, sweeps = solve_soft_vi(model, np.zeros((1, 1)), v0=v0)
    assert sweeps == 1


def test_choice_values_beta_zero_equals_rewards():
    rng = np.random.default_rng(2)
    model = random_model(rng, n_states=3, n_actions=2, beta=0.0)
    r = rng.standard_normal((3, 2))
    assert np.array_equal(choice_values(model, r, np.zeros(3)), r)


def test_choice_values_identity_transitions_constant_value():
    eye = np.eye(3)
    model = DdcModel(
        n_states=3, n_actions=2,
        transitions=TransitionModel([eye, eye]),
        discount=0.8,
        features=FeatureMatrix(np.zeros((3, 1))),
        initial_dist=np.full(3, 1 / 3),
    )
    r = np.arange(6.0).reshape(3, 2)
    q = choice_values(model, r, np.full(3, 2.0))
    assert np.allclose(q, r + 0.8 * 2.0)


def test_choice_values_direct_summation_oracle():
    rng = np.random.default_rng(8)
    model = random_model(rng, n_states=4, n_actions=3)
    r = rng.standard_normal((4, 3))
    v = rng.standard_normal(4)
    q = choice_values(model, r, v)
    for x in range(4):
        for a in range(3):
            expect = r[x, a] + model.discount * sum(
                per_action(model.transitions)[a][x, j] * v[j]
                for j in range(4))
            assert abs(q[x, a] - expect) < 1e-12


def test_policy_symmetric_row():
    pol = policy_from_values(np.array([[3.0, 3.0]]))
    assert np.allclose(pol.probs, [[0.5, 0.5]])


def test_policy_log_three_row():
    c = -1.7
    pol = policy_from_values(np.array([[np.log(3.0) + c, c]]))
    assert np.allclose(pol.probs, [[0.75, 0.25]])


def test_policy_shift_invariance():
    rng = np.random.default_rng(4)
    q = rng.standard_normal((5, 3))
    shift = rng.standard_normal((5, 1)) * 100
    a = policy_from_values(q).probs
    b = policy_from_values(q + shift).probs
    assert np.allclose(a, b, atol=1e-12)


def test_policy_rows_normalize_with_extreme_entries():
    q = np.array([[700.0, -700.0, 0.0], [-650.0, -700.0, -690.0]])
    probs = policy_from_values(q).probs
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs >= 0.0)


def test_reward_shift_moves_value_not_policy():
    rng = np.random.default_rng(6)
    model = random_model(rng, n_states=5, n_actions=3, beta=0.9)
    r = rng.standard_normal((5, 3))
    cfg = SoftDpConfig(tolerance=1e-12)
    c = 2.5
    v1, _ = solve_soft_vi(model, r, cfg)
    v2, _ = solve_soft_vi(model, r + c, cfg)
    p1 = policy_from_values(choice_values(model, r, v1))
    p2 = policy_from_values(choice_values(model, r + c, v2))
    assert np.allclose(v2.values - v1.values, c / (1 - 0.9), atol=1e-8)
    assert np.allclose(p1.probs, p2.probs, atol=1e-9)


def test_logsumexp_rows_matches_scipy():
    from scipy.special import logsumexp

    rng = np.random.default_rng(12)
    for scale in (1.0, 50.0, 700.0):
        q = rng.standard_normal((1024, 4)) * scale
        assert np.allclose(logsumexp_rows(q), logsumexp(q, axis=1),
                           rtol=1e-14, atol=1e-12)
