"""Property tests for the sweep kernels of ``TransitionModel``.

``next_values`` and ``push_forward`` call scipy's compiled CSR mat-vec on
raw arrays, and ``weighted`` and ``push_forward`` gather the sigma-weighted
operator onto a sparsity pattern fixed per model, so the references here
are the plain ``scipy.sparse`` products they replace. They must agree
bitwise, not to a tolerance, on random sparse models with random goal sets
and weights that include zeros.
"""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from ccpirl.engine import forward_pass
from ccpirl.errors import MaxSweepsExceeded
from ccpirl.hotzmiller import factorize
from ccpirl.metrics import hard_value_iteration
from ccpirl.softdp import EULER_GAMMA, SoftDpConfig, logsumexp_rows, \
    solve_soft_vi

from conftest import sparse_models

SETTINGS = settings(max_examples=60, deadline=None)


def _weights(rng, model):
    """Row-stochastic weights with about a third of the entries zero; a
    row that drew all zeros stays zero."""
    w = rng.random((model.n_states, model.n_actions))
    w *= rng.random(w.shape) > 0.35
    sums = w.sum(axis=1, keepdims=True)
    return np.divide(w, sums, out=np.zeros_like(w), where=sums > 0)


def _reference_next_values(model, v):
    """The scipy.sparse product, in next_values' column-major layout."""
    return (model.transitions.csr @ v).reshape(model.n_actions,
                                               model.n_states).T


def _reference_weighted(trans, w):
    """F = sum_a diag(w_a) T(a) as one scipy.sparse product: a selector
    whose row x holds w[x, a] at column a*|X| + x, times the stacked CSR."""
    n, k = trans.n_states, trans.n_actions
    cols = (np.arange(n)[:, None] + n * np.arange(k)).ravel()
    selector = scipy.sparse.csr_matrix(
        (np.ravel(w).astype(float), cols, np.arange(0, n * k + 1, k)),
        shape=(n, n * k))
    return selector @ trans.csr


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@SETTINGS
@given(sparse_models())
def test_next_values_bitwise_equal_to_csr_product(case):
    model, rng = case
    v = rng.standard_normal(model.n_states)
    assert_bitwise(model.transitions.next_values(v),
                   _reference_next_values(model, v))
    # a second call must not see the first one's output
    assert_bitwise(model.transitions.next_values(v),
                   _reference_next_values(model, v))


@SETTINGS
@given(sparse_models())
def test_weighted_and_its_solve_bitwise_equal_to_selector_product(case):
    model, rng = case
    trans = model.transitions
    for _ in range(2):  # the pattern is reused across weights
        w = _weights(rng, model)
        b = rng.standard_normal(model.n_states)
        want = _reference_weighted(trans, w)
        assert_bitwise(trans.weighted(w).toarray(), want.toarray())
        assert_bitwise(factorize(trans.weighted(w), model.discount).solve(b),
                       factorize(want, model.discount).solve(b))
        # F shares the model's pattern, which an in-place edit must not reach
        with pytest.raises(ValueError):
            trans.weighted(w).eliminate_zeros()


@SETTINGS
@given(sparse_models())
def test_forward_operator_bitwise_equal_to_weighted_transpose(case):
    model, rng = case
    trans = model.transitions
    for _ in range(2):  # the pattern is reused across weights
        w = _weights(rng, model)
        d = rng.standard_normal(model.n_states)
        assert_bitwise(trans.push_forward(w, d, 1)[1],
                       _reference_weighted(trans, w).T @ d)


@SETTINGS
@given(sparse_models(), st.integers(1, 12))
def test_forward_pass_bitwise_equal_to_sparse_products(case, horizon):
    model, rng = case
    policy = _weights(rng, model)
    w = policy.copy()
    w[sorted(model.goal_states)] = 0.0
    step = _reference_weighted(model.transitions, w).T
    layers = [model.initial_dist.copy()]
    for _ in range(horizon):
        layers.append(step @ layers[-1])

    vis = forward_pass(model, policy, horizon)
    assert_bitwise(vis.per_step, np.array(layers))
    assert_bitwise(vis.total, np.sum(layers, axis=0))
    mass = vis.per_step.sum(axis=1)
    assert np.all(np.diff(mass) <= 1e-12)


@SETTINGS
@given(sparse_models(), st.integers(1, 3))
def test_soft_vi_sweeps_bitwise_equal_to_reference(case, sweeps):
    model, rng = case
    r = rng.standard_normal((model.n_states, model.n_actions))
    v0 = rng.standard_normal(model.n_states)
    want = v0
    for _ in range(sweeps):
        q = np.asfortranarray(r) \
            + model.discount * _reference_next_values(model, want)
        want = logsumexp_rows(q) + EULER_GAMMA
    with pytest.raises(MaxSweepsExceeded) as stopped:
        solve_soft_vi(model, r, SoftDpConfig(tolerance=0.0, max_sweeps=sweeps),
                      v0)
    assert_bitwise(stopped.value.last_iterate.values, want)


@SETTINGS
@given(sparse_models(), st.integers(1, 3))
def test_hard_vi_sweeps_bitwise_equal_to_reference(case, sweeps):
    model, rng = case
    r = rng.standard_normal((model.n_states, model.n_actions))
    want = np.zeros(model.n_states)
    for _ in range(sweeps):
        q = np.asfortranarray(r) \
            + model.discount * _reference_next_values(model, want)
        want = q.max(axis=1)
    with pytest.raises(MaxSweepsExceeded) as stopped:
        hard_value_iteration(model, r, tolerance=0.0, max_sweeps=sweeps)
    assert_bitwise(stopped.value.last_iterate, want)
