"""Evaluation metrics.

NLL scores demonstration actions under a candidate policy. EVD compares,
under the true reward, the value of the hard-optimal policy against the
value of the learned policy, averaged over the start distribution.
"""

import weakref

import numpy as np

from . import softdp
from .errors import EmptyData, MaxSweepsExceeded
from .hotzmiller import factorize
from .model import SoftPolicy, check_trajectories
from .rewards import reward_table


def nll(policy, trajectories):
    """Average over trajectories of -sum_t log pi(a_t | x_t).

    Probabilities are floored at the smallest positive double so unobserved
    actions cannot produce infinities. Raises InvalidInput for a state or
    action outside the policy table.
    """
    if not trajectories:
        raise EmptyData("no trajectories to score")
    probs = policy.probs if isinstance(policy, SoftPolicy) else np.asarray(policy)
    steps = np.concatenate([traj.steps for traj in trajectories])
    if np.any((steps < 0) | (steps >= probs.shape)):
        # one check over all steps; the per-trajectory one names the culprit
        check_trajectories(trajectories, *probs.shape)
    chosen = probs[steps[:, 0], steps[:, 1]]
    return -np.log(np.maximum(chosen, np.finfo(float).tiny)).sum() \
        / len(trajectories)


def soft_optimal_policy(model, rewards):
    """The policy a learned reward is scored by: soft VI on the reward, then
    the softmax of its choice values. The three steps are looked up on
    ``softdp`` at call time, so that a wrapper set there sees them."""
    vbar, _ = softdp.solve_soft_vi(model, rewards)
    return softdp.policy_from_values(
        softdp.choice_values(model, rewards, vbar))


def uniform_policy(n_states, n_actions):
    return SoftPolicy(np.full((n_states, n_actions), 1.0 / n_actions))


def hard_value_iteration(model, rewards, tolerance=1e-8, max_sweeps=100000):
    """Standard max-Bellman fixed point; no shocks, no entropy term.

    Returns the optimal values and the greedy policy (deterministic,
    encoded as a one-hot row-stochastic matrix).
    """
    # column-major like next_values, so that q is too (see next_values)
    r = np.asfortranarray(reward_table(model, rewards))
    beta = model.discount
    next_values = model.transitions.next_values
    v = np.zeros(model.n_states)
    for _ in range(max_sweeps):
        q = r + beta * next_values(v)
        v_new = q.max(axis=1)
        residual = np.max(np.abs(v_new - v))
        v = v_new
        if residual < tolerance:
            greedy = q.argmax(axis=1)
            probs = np.zeros_like(q)
            probs[np.arange(model.n_states), greedy] = 1.0
            return v, SoftPolicy(probs)
    raise MaxSweepsExceeded(
        f"hard value iteration did not converge (residual {residual:g})",
        last_iterate=v, residual=residual,
    )


def policy_evaluation(model, rewards, policy):
    """Exact value of a fixed policy: solve (I - beta*T_pi) V = R_pi."""
    r = reward_table(model, rewards)
    probs = policy.probs if isinstance(policy, SoftPolicy) else np.asarray(policy)
    r_pi = np.sum(probs * r, axis=1)
    t_pi = model.transitions.weighted(probs)
    return factorize(t_pi, model.discount).solve(r_pi)


# (weak reference to the model, copy of its true reward table, v*) of the
# last optimum evd solved; see _optimal_values
_optimal_memo = None


def _optimal_values(model, true_reward):
    """The hard-optimal values v* of the true reward, solved once per (model,
    reward table) and reused for every policy scored against them.

    The model is matched by identity, through a weak reference so that a
    dropped model is freed and its id cannot be mistaken for a later one;
    the table by value, against a copy taken at the solve.
    """
    global _optimal_memo
    table = reward_table(model, true_reward)
    if _optimal_memo is not None:
        model_ref, memo_table, v_star = _optimal_memo
        if model_ref() is model and np.array_equal(memo_table, table):
            return v_star
    v_star, _ = hard_value_iteration(model, true_reward)
    _optimal_memo = (weakref.ref(model), table.copy(), v_star)
    return v_star


def evd(model, true_reward, learned_policy):
    """Expected value difference under the true reward, from the start states."""
    v_star = _optimal_values(model, true_reward)
    v_pi = policy_evaluation(model, true_reward, learned_policy)
    return float(model.initial_dist @ (v_star - v_pi))
