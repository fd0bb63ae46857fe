"""Soft (log-sum-exp) dynamic programming for DDC models.

The backup operator is

    Vbar'(x) = log sum_a exp( r(x,a) + beta * (T(a) Vbar)(x) ) + EULER_GAMMA

which is a sup-norm contraction with modulus beta, so iterating it converges
for beta < 1. Sweeps are Jacobi (no in-place updates), so per-state work is
order-independent. The additive Euler-gamma constant is the mean of the
standard Gumbel shock and is a module constant, not a tunable.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MaxSweepsExceeded
from .instrumentation import counters
from .model import ExAnteValue, SoftPolicy

EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class SoftDpConfig:
    tolerance: float = 1e-6
    max_sweeps: int = 10000


def _check_rewards(model, rewards):
    r = np.asarray(rewards, dtype=float)
    if r.shape != (model.n_states, model.n_actions):
        raise ValueError(
            f"reward table shape {r.shape} does not match "
            f"({model.n_states}, {model.n_actions})"
        )
    return r


def logsumexp_rows(q):
    """log sum_a exp(q[x, a]) per row, shifted by the row maximum.

    A plain numpy version of scipy.special.logsumexp(q, axis=1), which is
    several times slower on the small tables soft VI sweeps over.
    """
    top = q.max(axis=1)
    return top + np.log(np.exp(q - top[:, None]).sum(axis=1))


def _values(vbar):
    return vbar.values if isinstance(vbar, ExAnteValue) else np.asarray(vbar, dtype=float)


def soft_bellman_backup(model, rewards, vbar):
    """One application of the soft Bellman operator."""
    r = _check_rewards(model, rewards)
    q = r + model.discount * model.transitions.next_values(_values(vbar))
    return ExAnteValue(logsumexp_rows(q) + EULER_GAMMA)


def solve_soft_vi(model, rewards, config=None, v0=None):
    """Iterate the soft backup to its fixed point.

    Returns (ExAnteValue, sweep_count). Raises MaxSweepsExceeded (carrying
    the last iterate and residual) if the sup-norm tolerance is not reached.
    """
    cfg = config or SoftDpConfig()
    # column-major like next_values, so that q is too (see next_values)
    r = np.asfortranarray(_check_rewards(model, rewards))
    counters.soft_vi_solves += 1
    beta = model.discount
    next_values = model.transitions.next_values
    v = np.zeros(model.n_states) if v0 is None else np.asarray(v0, dtype=float).copy()
    for sweep in range(1, cfg.max_sweeps + 1):
        q = r + beta * next_values(v)
        v_new = logsumexp_rows(q) + EULER_GAMMA
        residual = np.max(np.abs(v_new - v))
        v = v_new
        if residual < cfg.tolerance:
            return ExAnteValue(v), sweep
    raise MaxSweepsExceeded(
        f"soft value iteration did not reach {cfg.tolerance:g} "
        f"in {cfg.max_sweeps} sweeps (residual {residual:g})",
        last_iterate=ExAnteValue(v),
        residual=residual,
    )


def choice_values(model, rewards, vbar):
    """q(x, a) = r(x, a) + beta * E[Vbar(x') | x, a], an (|X|, |A|) array."""
    r = _check_rewards(model, rewards)
    return r + model.discount * model.transitions.next_values(_values(vbar))


def policy_from_values(q):
    """Row-wise softmax of the choice-specific values.

    Computed with a per-row max shift so rows with entries near +-700 still
    normalize exactly.
    """
    q = np.asarray(q, dtype=float)
    e = np.exp(q - q.max(axis=1, keepdims=True))
    return SoftPolicy(e / e.sum(axis=1, keepdims=True))


def solve_policy(model, rewards, config=None):
    """Convenience: fixed point plus its induced policy in one call."""
    vbar, sweeps = solve_soft_vi(model, rewards, config)
    pol = policy_from_values(choice_values(model, rewards, vbar))
    return vbar, pol, sweeps
