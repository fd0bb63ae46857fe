"""The three benchmark environments and expert demonstration sampling.

All three are N x N grids flattened row-major: cell (row, col) is state
row * n + col. Movement actions are North, South, East, West (and Stay for
the object grid); stochastic wind replaces the intended move with a
uniformly random direction (which may coincide with the intent) with
probability p. Off-grid moves leave the agent in place.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .metrics import hard_value_iteration
from .model import DdcModel, FeatureMatrix, Trajectory, TransitionModel
from .rewards import reward_table
from .softdp import choice_values, policy_from_values, solve_soft_vi

# (drow, dcol) for N, S, E, W
MOVES = ((-1, 0), (1, 0), (0, 1), (0, -1))


@dataclass(frozen=True)
class GridSpec:
    n: int
    wind: float = 0.3
    obstacle_density: float = 0.1
    macro_size: int = None  # macro-cell only
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid side length must be at least 2")
        if not (0.0 <= self.wind < 1.0):
            raise ValueError("wind probability must lie in [0, 1)")
        if self.macro_size is not None and (
                self.macro_size < 1 or self.n % self.macro_size != 0):
            raise ValueError("macro_size must divide the grid side length")


@dataclass(frozen=True)
class ObjectworldSpec:
    n: int
    n_colors: int = 2
    n_objects: int = None  # defaults to one object per ten cells
    seed: int = 0

    def __post_init__(self):
        if self.n_colors < 2:
            raise ValueError("need at least two colors")
        count = self.n_objects if self.n_objects is not None else self.n ** 2 // 10
        if count > self.n ** 2:
            raise ValueError("more objects than grid cells")
        if count < 1:
            raise ValueError("need at least one object")


@dataclass(frozen=True)
class TrueReward:
    """Per-state reward used to generate experts and to score EVD."""

    values: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


def _windy_transitions(n, wind, n_actions=4, absorbing=()):
    """Sparse per-action transitions for windy grid motion.

    Intended move with probability 1 - p, plus p/4 for every direction;
    blocked moves stay in place. A fifth action, if requested, is a
    deterministic Stay. Absorbing states self-loop under every action.
    Probabilities that land on the same cell are added in the order intent,
    then N, S, E, W.
    """
    n_states = n * n
    triplets = [([], [], []) for _ in range(n_actions)]
    absorbing = set(absorbing)

    def neighbor(row, col, move):
        r, c = row + move[0], col + move[1]
        if 0 <= r < n and 0 <= c < n:
            return r * n + c
        return row * n + col

    for row in range(n):
        for col in range(n):
            x = row * n + col
            for a, (rows, cols, values) in enumerate(triplets):
                if x in absorbing or a >= 4:  # absorbing, or Stay: no wind
                    probs = {x: 1.0}
                else:
                    probs = {neighbor(row, col, MOVES[a]): 1.0 - wind}
                    for move in MOVES:
                        y = neighbor(row, col, move)
                        probs[y] = probs.get(y, 0.0) + wind / 4.0
                for y in sorted(probs):
                    rows.append(x)
                    cols.append(y)
                    values.append(probs[y])
    return TransitionModel.from_triplets(n_states, triplets)


def build_fixed_target(spec, discount=0.9):
    """Navigation grid: +1 at the absorbing target in the far corner
    (row n-1, column n-1), -1 on obstacle cells.

    Obstacles are penalty cells, not walls; they never coincide with the
    target. Features per cell: negated normalized Manhattan distance to the
    target and an obstacle indicator. Starts are uniform over free cells.
    """
    n = spec.n
    n_states = n * n
    target_rc = (n - 1, n - 1)
    target = target_rc[0] * n + target_rc[1]

    rng = np.random.default_rng(spec.seed)
    n_obstacles = int(round(spec.obstacle_density * n_states))
    candidates = np.setdiff1d(np.arange(n_states), [target])
    obstacles = set(rng.choice(candidates, size=n_obstacles, replace=False).tolist()) \
        if n_obstacles else set()

    rewards = np.zeros(n_states)
    rewards[target] = 1.0
    rewards[sorted(obstacles)] = -1.0

    rows, cols = np.divmod(np.arange(n_states), n)
    manhattan = np.abs(rows - target_rc[0]) + np.abs(cols - target_rc[1])
    features = np.column_stack([
        -manhattan / (2.0 * (n - 1)),
        np.isin(np.arange(n_states), sorted(obstacles)).astype(float),
    ])

    free = [x for x in range(n_states) if x != target and x not in obstacles]
    initial = np.zeros(n_states)
    initial[free] = 1.0 / len(free)

    model = DdcModel(
        n_states=n_states,
        n_actions=4,
        transitions=_windy_transitions(n, spec.wind, absorbing={target}),
        discount=discount,
        features=FeatureMatrix(features),
        initial_dist=initial,
        goal_states={target},
    )
    true_reward = TrueReward(rewards, provenance={
        "rule": "fixed-target", "n": n, "target": list(target_rc),
        "obstacles": sorted(obstacles), "seed": spec.seed,
    })
    return model, true_reward


def build_macro_cell(spec, discount=0.9):
    """Grid partitioned into square regions sharing one reward each.

    A region gets a positive reward drawn uniformly from (0, 1) with
    probability 0.1, otherwise zero. Features are the one-hot region
    encoding. No absorbing states; episodes are fixed-horizon.
    """
    if spec.macro_size is None:
        raise ValueError("macro_size is required for the macro-cell grid")
    n, m = spec.n, spec.macro_size
    n_states = n * n
    regions_per_side = n // m
    n_regions = regions_per_side ** 2

    rng = np.random.default_rng(spec.seed)
    region_rewards = np.where(rng.random(n_regions) < 0.1,
                              rng.uniform(0.0, 1.0, size=n_regions), 0.0)

    rows, cols = np.divmod(np.arange(n_states), n)
    region = (rows // m) * regions_per_side + (cols // m)
    features = np.zeros((n_states, n_regions))
    features[np.arange(n_states), region] = 1.0

    model = DdcModel(
        n_states=n_states,
        n_actions=4,
        transitions=_windy_transitions(n, spec.wind),
        discount=discount,
        features=FeatureMatrix(features),
        initial_dist=np.full(n_states, 1.0 / n_states),
        goal_states=frozenset(),
    )
    true_reward = TrueReward(region_rewards[region], provenance={
        "rule": "macro-cell", "n": n, "macro_size": m, "seed": spec.seed,
        "region_rewards": region_rewards.tolist(),
    })
    return model, true_reward


def build_objectworld(spec, discount=0.9):
    """Grid with randomly placed two-colored objects and a nonlinear reward.

    A cell's reward is +1 if it lies within Manhattan distance 3 of the
    first outer color and within distance 2 of the second, -1 if only the
    first condition holds, and 0 otherwise. Features are, per color, the
    Manhattan distances to the nearest object with that inner color and
    that outer color; colors beyond the first two are pure distractors.
    """
    n, colors = spec.n, spec.n_colors
    n_states = n * n
    n_objects = spec.n_objects if spec.n_objects is not None else n_states // 10
    max_dist = 2.0 * (n - 1)

    rng = np.random.default_rng(spec.seed)
    cells = rng.choice(n_states, size=n_objects, replace=False)
    inner = rng.integers(0, colors, size=n_objects)
    outer = rng.integers(0, colors, size=n_objects)

    rows, cols_idx = np.divmod(np.arange(n_states), n)
    obj_rows, obj_cols = np.divmod(cells, n)
    # (|X|, n_objects) pairwise Manhattan distances
    dists = (np.abs(rows[:, None] - obj_rows[None, :])
             + np.abs(cols_idx[:, None] - obj_cols[None, :])).astype(float)

    features = np.full((n_states, 2 * colors), max_dist)
    for c in range(colors):
        if np.any(inner == c):
            features[:, 2 * c] = dists[:, inner == c].min(axis=1)
        if np.any(outer == c):
            features[:, 2 * c + 1] = dists[:, outer == c].min(axis=1)

    d_outer0 = features[:, 1]
    d_outer1 = features[:, 3]
    rewards = np.where(d_outer0 <= 3.0, np.where(d_outer1 <= 2.0, 1.0, -1.0), 0.0)

    model = DdcModel(
        n_states=n_states,
        n_actions=5,
        transitions=_windy_transitions(n, 0.3, n_actions=5),
        discount=discount,
        features=FeatureMatrix(features),
        initial_dist=np.full(n_states, 1.0 / n_states),
        goal_states=frozenset(),
    )
    true_reward = TrueReward(rewards, provenance={
        "rule": "objectworld", "n": n, "n_colors": colors,
        "cells": cells.tolist(), "inner": inner.tolist(),
        "outer": outer.tolist(), "seed": spec.seed,
    })
    return model, true_reward


def make_spec(kind, n, seed=0, wind=0.3, obstacle_density=0.1, macro_size=2,
              n_colors=2, n_objects=None):
    """The spec of an environment of one kind: "fixed", "macro" or
    "objectworld".

    Each kind reads only its own options: wind and obstacle density for the
    fixed-target grid, wind and macro size for the macro-cell grid, colors
    and objects for the object grid. Raises ValueError for an unknown kind
    or an invalid spec.
    """
    if kind == "fixed":
        return GridSpec(n=n, wind=wind, obstacle_density=obstacle_density,
                        seed=seed)
    if kind == "macro":
        return GridSpec(n=n, wind=wind, macro_size=macro_size, seed=seed)
    if kind == "objectworld":
        return ObjectworldSpec(n=n, n_colors=n_colors, n_objects=n_objects,
                               seed=seed)
    raise ValueError(f"unknown environment kind {kind!r}")


def build(kind, n, discount=0.9, **options):
    """(model, true_reward) of the environment ``make_spec(kind, n,
    **options)`` describes; raises ValueError for an unknown kind or an
    invalid spec."""
    spec = make_spec(kind, n, **options)
    if kind == "fixed":
        return build_fixed_target(spec, discount=discount)
    if kind == "macro":
        return build_macro_cell(spec, discount=discount)
    return build_objectworld(spec, discount=discount)


def default_traj_length(kind, n):
    """Episode lengths: goal-terminated grids get a generous cap, the
    fixed-horizon environments scale with the grid side."""
    if kind == "fixed":
        return 4 * n
    return max(8, n)


def generate_experts(model, true_reward, n_trajectories, traj_length, seed,
                     mode="soft", epsilon=0.1):
    """Sample demonstrations from the soft-optimal policy of the true reward.

    mode "soft" (default) samples the soft-DP policy directly; mode
    "hard-eps" follows the hard-optimal action with probability 1-epsilon
    and a uniform action otherwise. See ``sample_trajectories`` for how
    the walks are drawn.
    """
    policy = expert_policy(model, true_reward, mode, epsilon)
    return sample_trajectories(model, policy, n_trajectories, traj_length,
                               seed)


def expert_policy(model, true_reward, mode="soft", epsilon=0.1):
    """(|X|, |A|) choice probabilities of the expert ``generate_experts``
    samples."""
    rewards = reward_table(model, true_reward)
    if mode == "soft":
        vbar, _ = solve_soft_vi(model, rewards)
        return policy_from_values(choice_values(model, rewards, vbar)).probs
    if mode == "hard-eps":
        _, greedy = hard_value_iteration(model, rewards)
        return (1.0 - epsilon) * greedy.probs + epsilon / model.n_actions
    raise ValueError(f"unknown expert mode {mode!r}")


_SUM_ATOL = np.sqrt(np.finfo(float).eps)


def _check_distributions(name, probs, sums):
    """Raise ValueError unless every row is non-negative and its sum lies
    within sqrt(eps) of 1, the checks ``Generator.choice(p=)`` makes."""
    if not np.all(probs >= 0.0):
        raise ValueError(f"{name} probabilities are not non-negative")
    if not np.all(np.abs(sums - 1.0) <= _SUM_ATOL):
        raise ValueError(f"{name} probabilities do not sum to 1")


def sample_trajectories(model, policy, n_trajectories, traj_length, seed):
    """Walk n_trajectories episodes of ``policy`` from the initial
    distribution. Each stops once an absorbing goal state has been
    recorded, or at traj_length steps.

    Trajectory i draws from the i-th RNG stream spawned from the seed, so
    sampling shards deterministically, and its walk is exactly the one that
    successive ``rng.choice(p=)`` calls would draw (start state, then an
    action and a next state per step): each call consumes one uniform u
    and returns the count of entries <= u in the CDF ``p.cumsum() /
    p.sum()``. Here each stream's uniforms are drawn up front, the CDFs are
    tables built once, and all walks advance together one step at a time.
    """
    if traj_length < 1:
        raise ValueError("trajectory must contain at least one step")
    policy = np.asarray(policy, dtype=float)
    if policy.shape != (model.n_states, model.n_actions):
        raise ValueError(f"policy has shape {policy.shape}, expected "
                         f"({model.n_states}, {model.n_actions})")
    trans = model.transitions
    _check_distributions("initial state", model.initial_dist,
                         model.initial_dist.sum())
    _check_distributions("policy", policy, policy.sum(axis=1))
    _check_distributions("transition", trans.csr.data,
                         np.asarray(trans.csr.sum(axis=1)).ravel())
    start_cdf = model.initial_dist.cumsum()
    start_cdf /= start_cdf[-1]
    policy_cdf = policy.cumsum(axis=1)
    policy_cdf /= policy_cdf[:, -1:]
    next_states, next_cdf = trans.next_state_cdfs
    is_goal = np.zeros(model.n_states, dtype=bool)
    is_goal[list(model.goal_states)] = True

    uniforms = np.empty((n_trajectories, 1 + 2 * traj_length))
    for stream, row in zip(np.random.SeedSequence(seed).spawn(n_trajectories),
                           uniforms):
        np.random.default_rng(stream).random(out=row)
    states = np.empty((n_trajectories, traj_length), dtype=np.int64)
    actions = np.empty_like(states)
    lengths = np.full(n_trajectories, traj_length)
    live = np.arange(n_trajectories)
    x = start_cdf.searchsorted(uniforms[:, 0], side="right")
    for t in range(traj_length):
        a = (policy_cdf[x] <= uniforms[live, 1 + 2 * t, None]).sum(axis=1)
        states[live, t] = x
        actions[live, t] = a
        done = is_goal[x]
        if done.any():
            lengths[live[done]] = t + 1
            live, x, a = live[~done], x[~done], a[~done]
            if not live.size:
                break
        row = a * model.n_states + x
        k = (next_cdf[row] <= uniforms[live, 2 + 2 * t, None]).sum(axis=1)
        x = next_states[row, k]
    return [Trajectory(np.stack([states[i, :m], actions[i, :m]], axis=1))
            for i, m in enumerate(lengths)]


def save_true_reward(path, true_reward):
    with open(path, "w") as fh:
        json.dump({"values": true_reward.values.tolist(),
                   "provenance": true_reward.provenance}, fh)


def load_true_reward(path):
    """Read a true-reward file; raises InvalidInput if it is malformed."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        return TrueReward(np.asarray(data["values"], dtype=float),
                          provenance=data.get("provenance", {}))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InvalidInput(f"malformed true reward {path}: {exc}") from exc
