"""Empirical conditional choice probabilities and the shock correction.

CCPs are maximum-likelihood action frequencies per state, smoothed so that
log sigma stays finite everywhere (the shock correction needs it). They are
estimated once, before any optimization loop; re-estimating per iteration
would reintroduce the per-iteration cost the CCP method exists to avoid.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import EmptyData, NonPositiveProbability
from .model import CCPTable, check_trajectories
from .softdp import EULER_GAMMA


@dataclass(frozen=True)
class SmoothingConfig:
    mode: str = "additive"  # "additive" or "uniform-fallback"
    alpha: float = 0.01

    def __post_init__(self):
        if self.mode not in ("additive", "uniform-fallback"):
            raise ValueError(f"unknown smoothing mode {self.mode!r}")
        if self.mode == "additive" and self.alpha <= 0:
            raise ValueError("additive smoothing requires alpha > 0")


def count_pairs(trajectories, n_states, n_actions):
    """Integer (|X|, |A|) table of observed state-action occurrences.

    Counting is a commutative merge, so trajectory shards can be counted
    independently and summed. Raises InvalidInput for an index outside the
    table.
    """
    check_trajectories(trajectories, n_states, n_actions)
    counts = np.zeros((n_states, n_actions), dtype=np.int64)
    for traj in trajectories:
        np.add.at(counts, (traj.states, traj.actions), 1)
    return counts


def estimate_ccp(trajectories, n_states, n_actions, smoothing=None):
    """Build a smoothed CCP table from demonstrations.

    Additive mode: sigma(a|x) = (count(x,a) + alpha) / (count(x) + alpha|A|),
    which reduces to the uniform row 1/|A| for unvisited states.
    Uniform-fallback mode: pure MLE per visited state with zero-count actions
    floored at the smallest positive double and renormalized; unvisited
    states get uniform rows.
    """
    smoothing = smoothing or SmoothingConfig()
    counts = count_pairs(trajectories, n_states, n_actions)
    if counts.sum() == 0:
        raise EmptyData("no state-action observations in the trajectories")
    state_totals = counts.sum(axis=1, keepdims=True)
    if smoothing.mode == "additive":
        probs = (counts + smoothing.alpha) / (
            state_totals + smoothing.alpha * n_actions
        )
    else:
        probs = np.full((n_states, n_actions), 1.0 / n_actions)
        visited = state_totals[:, 0] > 0
        mle = counts[visited] / state_totals[visited]
        mle = np.maximum(mle, np.finfo(float).tiny)
        probs[visited] = mle / mle.sum(axis=1, keepdims=True)
    return CCPTable(probs=probs, support_counts=counts)


def expected_shock(ccp):
    """Mean shock conditional on each action being chosen.

    Under Gumbel shocks this is EULER_GAMMA - log sigma(a|x), entrywise; it
    is monotone decreasing in sigma and never below EULER_GAMMA.
    """
    probs = ccp.probs if isinstance(ccp, CCPTable) else np.asarray(ccp, dtype=float)
    if np.any(probs <= 0.0):
        raise NonPositiveProbability(
            "choice probabilities must be strictly positive to take logs"
        )
    return EULER_GAMMA - np.log(probs)


def save_ccp(path, ccp, smoothing=None):
    """Export probabilities, raw counts, and smoothing metadata for audits."""
    payload = {
        "n_states": ccp.n_states,
        "n_actions": ccp.n_actions,
        "probs": ccp.probs.ravel().tolist(),
        "support_counts": ccp.support_counts.ravel().tolist(),
        "smoothing": None
        if smoothing is None
        else {"mode": smoothing.mode, "alpha": smoothing.alpha},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_ccp(path):
    with open(path) as fh:
        data = json.load(fh)
    shape = (data["n_states"], data["n_actions"])
    return CCPTable(
        probs=np.asarray(data["probs"], dtype=float).reshape(shape),
        support_counts=np.asarray(data["support_counts"], dtype=np.int64).reshape(shape),
    )
