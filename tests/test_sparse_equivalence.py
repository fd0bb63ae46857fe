"""The sparse transition operator against dense formulas.

Every product the package takes through ``TransitionModel`` is recomputed
here from the dense T(a) matrices (``conftest.per_action``) with plain
numpy, on random dense models and on 8x8 grids, and must agree to 1e-12.
"""

import hashlib
import json

import numpy as np
import pytest

from ccpirl.ccp import expected_shock
from ccpirl.engine import forward_pass
from ccpirl.envs import GridSpec, ObjectworldSpec, build_fixed_target, \
    build_objectworld, generate_experts
from ccpirl.hotzmiller import build_operator, exante_value, \
    weighted_flow_reward
from ccpirl.metrics import policy_evaluation
from ccpirl.model import CCPTable, trajectories_to_json

from conftest import iterative_inverse_apply, per_action, random_model

TOL = 1e-12


def _models():
    rng = np.random.default_rng(20)
    models = [random_model(rng, n_states=n, n_actions=k, goal_states=goals)
              for n, k, goals in ((5, 3, ()), (12, 2, (3,)), (30, 4, (0, 7)))]
    models.append(build_fixed_target(GridSpec(n=8, seed=0))[0])
    models.append(build_objectworld(ObjectworldSpec(n=8, seed=0))[0])
    return models


MODELS = _models()
IDS = ["random5", "random12-goal", "random30-goals", "fixed8", "objectworld8"]


def _policy(rng, model):
    probs = rng.random((model.n_states, model.n_actions)) + 0.05
    return probs / probs.sum(axis=1, keepdims=True)


def _dense_weighted(model, weights):
    mats = per_action(model.transitions)
    return sum(weights[:, a, None] * mats[a] for a in range(model.n_actions))


@pytest.mark.parametrize("model", MODELS, ids=IDS)
def test_next_values_match_dense(model):
    v = np.random.default_rng(1).standard_normal(model.n_states)
    dense = np.column_stack([m @ v for m in per_action(model.transitions)])
    assert np.max(np.abs(model.transitions.next_values(v) - dense)) < TOL


@pytest.mark.parametrize("model", MODELS, ids=IDS)
def test_weighted_transition_matches_dense(model):
    probs = _policy(np.random.default_rng(2), model)
    F = model.transitions.weighted(probs)
    assert F.shape == (model.n_states, model.n_states)
    assert np.max(np.abs(F.toarray() - _dense_weighted(model, probs))) < TOL
    with pytest.raises(ValueError, match="weights have shape"):
        model.transitions.weighted(probs.T)


@pytest.mark.parametrize("model", MODELS, ids=IDS)
def test_forward_pass_matches_dense(model):
    probs = _policy(np.random.default_rng(3), model)
    mats = per_action(model.transitions)
    goals = sorted(model.goal_states)
    layers = [model.initial_dist.copy()]
    for _ in range(9):
        d = layers[-1].copy()
        d[goals] = 0.0
        layers.append(sum(mats[a].T @ (probs[:, a] * d)
                          for a in range(model.n_actions)))
    vis = forward_pass(model, probs, 9)
    for got, want in zip(vis.per_step, layers):
        assert np.max(np.abs(got - want)) < TOL


@pytest.mark.parametrize("model", MODELS, ids=IDS)
def test_policy_evaluation_matches_dense(model):
    rng = np.random.default_rng(4)
    probs = _policy(rng, model)
    r = rng.standard_normal((model.n_states, model.n_actions))
    system = np.eye(model.n_states) - model.discount * _dense_weighted(model, probs)
    dense = np.linalg.solve(system, np.sum(probs * r, axis=1))
    assert np.max(np.abs(policy_evaluation(model, r, probs) - dense)) < TOL


@pytest.mark.parametrize("model", MODELS, ids=IDS)
@pytest.mark.parametrize("mode", ["direct", "iterative"])
def test_hotz_miller_value_matches_dense(model, mode):
    rng = np.random.default_rng(5)
    sigma = _policy(rng, model)
    table = CCPTable(sigma, np.zeros(sigma.shape, dtype=np.int64))
    r = rng.standard_normal((model.n_states, model.n_actions))
    b = np.sum(sigma * (r + expected_shock(table)), axis=1)
    system = np.eye(model.n_states) - model.discount * _dense_weighted(model, sigma)
    dense = np.linalg.solve(system, b)
    # successive approximation stops at a residual of 1e-8 (1 - beta)
    tol = TOL if mode == "direct" else 1e-8
    op = build_operator(model, table)
    if mode == "direct":
        got = exante_value(op, r).values
    else:
        got = iterative_inverse_apply(model.transitions.weighted(sigma),
                                      model.discount,
                                      weighted_flow_reward(op, r))
    assert np.max(np.abs(got - dense)) < tol


def test_row_matches_dense_row():
    model = MODELS[3]
    mats = per_action(model.transitions)
    states, cdfs = model.transitions.next_state_cdfs
    width = np.diff(model.transitions.csr.indptr).max()
    assert states.shape == cdfs.shape == (model.n_actions * model.n_states,
                                          width)
    for x in (0, 9, 63):
        for a in range(model.n_actions):
            dense = mats[a][x]
            cols = np.flatnonzero(dense)
            k = cols.size
            row = a * model.n_states + x
            assert np.array_equal(states[row, :k], cols)
            # the CDF Generator.choice(p=) builds from the dense row
            cdf = dense[cols].cumsum()
            assert np.array_equal(cdfs[row, :k], cdf / cdf[-1])
            assert np.all(cdfs[row, k:] == 1.0)


def test_expert_demos_are_pinned():
    # sha256 of the demos the dense transition code sampled on this grid
    model, true_reward = build_fixed_target(GridSpec(n=8, seed=0),
                                            discount=0.9)
    demos = generate_experts(model, true_reward, 16, 32, seed=1)
    digest = hashlib.sha256(
        json.dumps(trajectories_to_json(demos)).encode()).hexdigest()
    assert digest == \
        "7cfd7ac3f025d489175e8ffa5ee0cfd14122b79257f9a6d5fcb8975fb7a4d877"
