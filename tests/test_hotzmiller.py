import numpy as np
import pytest

from ccpirl.errors import MaxSweepsExceeded
from ccpirl.hotzmiller import build_operator, exante_value, \
    weighted_flow_reward
from ccpirl.instrumentation import counters
from ccpirl.model import CCPTable, DdcModel, FeatureMatrix, TransitionModel
from ccpirl.rewards import broadcast_rewards
from ccpirl.softdp import (
    EULER_GAMMA,
    SoftDpConfig,
    choice_values,
    policy_from_values,
    solve_soft_vi,
)

from conftest import iterative_inverse_apply, random_model


def exact_ccp_table(model, rewards, tolerance=1e-12):
    """Model-implied choice probabilities of a reward table."""
    vbar, _ = solve_soft_vi(model, rewards, SoftDpConfig(tolerance=tolerance,
                                                         max_sweeps=10 ** 6))
    probs = policy_from_values(choice_values(model, rewards, vbar)).probs
    return CCPTable(probs, np.zeros_like(probs, dtype=np.int64)), vbar


def scalar_model(beta=0.9):
    one = np.ones((1, 1))
    return DdcModel(
        n_states=1, n_actions=1,
        transitions=TransitionModel([one]),
        discount=beta,
        features=FeatureMatrix(np.zeros((1, 1))),
        initial_dist=np.array([1.0]),
    )


def unit_ccp(n_states, n_actions):
    probs = np.full((n_states, n_actions), 1.0 / n_actions)
    return CCPTable(probs, np.zeros_like(probs, dtype=np.int64))


def test_scalar_inverse_is_geometric_series():
    op = build_operator(scalar_model(0.9), unit_ccp(1, 1))
    assert np.allclose(op.lu.solve(np.ones(1)), [10.0])


def test_identical_transitions_collapse_to_shared_matrix():
    rng = np.random.default_rng(0)
    mat = rng.random((3, 3)) + 0.1
    mat /= mat.sum(axis=1, keepdims=True)
    model = DdcModel(
        n_states=3, n_actions=2,
        transitions=TransitionModel([mat, mat]),
        discount=0.9,
        features=FeatureMatrix(np.zeros((3, 1))),
        initial_dist=np.full(3, 1 / 3),
    )
    sigma = rng.random((3, 2)) + 0.1
    sigma /= sigma.sum(axis=1, keepdims=True)
    assert np.allclose(model.transitions.weighted(sigma).toarray(), mat)


def test_inverse_multiplies_back_to_identity():
    rng = np.random.default_rng(1)
    model = random_model(rng, n_states=6, n_actions=3)
    sigma = rng.random((6, 3)) + 0.1
    sigma /= sigma.sum(axis=1, keepdims=True)
    op = build_operator(model, CCPTable(sigma, np.zeros((6, 3), dtype=np.int64)))
    system = np.eye(6) - model.discount \
        * model.transitions.weighted(sigma).toarray()
    assert np.allclose(op.lu.solve(np.eye(6)) @ system, np.eye(6), atol=1e-8)


def test_inverse_row_sums_are_geometric():
    # rows of [I - beta*F]^{-1} sum to 1/(1-beta) since F is row-stochastic
    rng = np.random.default_rng(2)
    for beta in (0.5, 0.9, 0.99):
        model = random_model(rng, n_states=5, n_actions=2, beta=beta)
        sigma = rng.random((5, 2)) + 0.1
        sigma /= sigma.sum(axis=1, keepdims=True)
        op = build_operator(model, CCPTable(sigma, np.zeros((5, 2), dtype=np.int64)))
        assert np.allclose(op.lu.solve(np.ones(5)), 1.0 / (1.0 - beta),
                           atol=1e-8)


def test_policy_transition_is_row_stochastic():
    rng = np.random.default_rng(3)
    model = random_model(rng, n_states=7, n_actions=4)
    sigma = rng.random((7, 4)) + 0.1
    sigma /= sigma.sum(axis=1, keepdims=True)
    F = model.transitions.weighted(sigma).toarray()
    assert np.allclose(F.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(F >= 0.0)


def test_scalar_value_matches_soft_vi():
    model = scalar_model(0.9)
    op = build_operator(model, unit_ccp(1, 1))
    b = weighted_flow_reward(op, np.zeros((1, 1)))
    assert np.allclose(b, EULER_GAMMA)
    v = exante_value(op, np.zeros((1, 1)))
    assert np.allclose(v.values, 10 * EULER_GAMMA, atol=1e-10)
    vbar, _ = solve_soft_vi(model, np.zeros((1, 1)), SoftDpConfig(tolerance=1e-12))
    assert np.allclose(v.values, vbar.values, atol=1e-9)


def test_reward_shift_moves_value_exactly():
    rng = np.random.default_rng(4)
    model = random_model(rng, n_states=5, n_actions=3, beta=0.9)
    sigma = rng.random((5, 3)) + 0.1
    sigma /= sigma.sum(axis=1, keepdims=True)
    op = build_operator(model, CCPTable(sigma, np.zeros((5, 3), dtype=np.int64)))
    r = rng.standard_normal((5, 3))
    c = 1.7
    v1 = exante_value(op, r).values
    v2 = exante_value(op, r + c).values
    assert np.allclose(v2 - v1, c / (1 - 0.9), atol=1e-9)


def test_affine_linearity_in_rewards():
    rng = np.random.default_rng(5)
    model = random_model(rng, n_states=4, n_actions=2)
    sigma = rng.random((4, 2)) + 0.1
    sigma /= sigma.sum(axis=1, keepdims=True)
    op = build_operator(model, CCPTable(sigma, np.zeros((4, 2), dtype=np.int64)))
    r1 = rng.standard_normal((4, 2))
    r2 = rng.standard_normal((4, 2))
    lhs = exante_value(op, r1 + r2).values
    rhs = exante_value(op, r1).values + exante_value(op, r2).values \
        - exante_value(op, np.zeros((4, 2))).values
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_core_identity_on_gridworld():
    # exact model CCPs reproduce the soft-VI fixed point
    from ccpirl.envs import GridSpec, build_fixed_target

    model, true_reward = build_fixed_target(GridSpec(n=5, seed=0))
    r = broadcast_rewards(true_reward.values, model.n_actions)
    table, vbar = exact_ccp_table(model, r)
    op = build_operator(model, table)
    v = exante_value(op, r)
    assert np.max(np.abs(v.values - vbar.values)) < 1e-5


def test_core_identity_on_random_models():
    rng = np.random.default_rng(6)
    for _ in range(5):
        n = int(rng.integers(3, 50))
        model = random_model(rng, n_states=n, n_actions=int(rng.integers(2, 5)),
                             beta=float(rng.choice([0.9, 0.95])))
        r = rng.standard_normal((n, model.n_actions))
        table, vbar = exact_ccp_table(model, r)
        op = build_operator(model, table)
        assert np.max(np.abs(exante_value(op, r).values - vbar.values)) < 1e-5


def test_iterative_scalar_geometric():
    v = iterative_inverse_apply(np.eye(1), 0.5, np.array([1.0]))
    assert np.allclose(v, 2.0, atol=1e-8)


def test_iterative_zero_rhs():
    rng = np.random.default_rng(7)
    F = rng.random((4, 4))
    F /= F.sum(axis=1, keepdims=True)
    assert np.allclose(iterative_inverse_apply(F, 0.9, np.zeros(4)), 0.0)


def test_iterative_matches_direct_inverse():
    rng = np.random.default_rng(8)
    F = rng.random((8, 8)) + 0.05
    F /= F.sum(axis=1, keepdims=True)
    b = rng.standard_normal(8)
    direct = np.linalg.solve(np.eye(8) - 0.9 * F, b)
    assert np.max(np.abs(iterative_inverse_apply(F, 0.9, b) - direct)) < 1e-6


def test_iterative_sweep_cap_raises():
    F = np.eye(1)
    with pytest.raises(MaxSweepsExceeded) as exc:
        iterative_inverse_apply(F, 0.99, np.array([1.0]), max_sweeps=2)
    assert exc.value.last_iterate is not None


def test_modes_agree_on_model():
    rng = np.random.default_rng(9)
    model = random_model(rng, n_states=12, n_actions=3)
    sigma = rng.random((12, 3)) + 0.1
    sigma /= sigma.sum(axis=1, keepdims=True)
    table = CCPTable(sigma, np.zeros((12, 3), dtype=np.int64))
    r = rng.standard_normal((12, 3))
    op = build_operator(model, table)
    vd = exante_value(op, r).values
    vi = iterative_inverse_apply(model.transitions.weighted(sigma),
                                 model.discount, weighted_flow_reward(op, r))
    assert np.max(np.abs(vd - vi)) < 1e-6


def test_factorization_paid_once():
    rng = np.random.default_rng(11)
    model = random_model(rng, n_states=6, n_actions=2)
    op = build_operator(model, unit_ccp(6, 2))
    assert counters.factorizations == 1
    for _ in range(7):
        exante_value(op, rng.standard_normal((6, 2)))
    assert counters.factorizations == 1
    assert counters.exante_evals == 7
    assert counters.operator_builds == 1
