"""Core data model for dynamic-discrete-choice MDPs.

States and actions are dense integer indices (0..n_states-1 and
0..n_actions-1); environments own any mapping from coordinates to indices.
All containers are treated as immutable after construction: arrays are
flagged read-only so they can be shared across threads safely.
"""

import functools
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
# scipy's compiled y += A x on raw CSR arrays, the kernel behind csr @ x.
# It is private API but its signature has been stable across releases; a
# test pins it bitwise to csr @ x, so a change in scipy fails loudly.
from scipy.sparse._sparsetools import csr_matvec

from .errors import InvalidInput

ROW_SUM_TOL = 1e-9


def _frozen(a, dtype=float):
    out = np.ascontiguousarray(np.asarray(a, dtype=dtype))
    out.setflags(write=False)
    return out


def _matvec_add(indptr, indices, data, x, out):
    """out += A x for the CSR arrays of A, without scipy.sparse's per-call
    dispatch; out must be a contiguous float array that does not alias x."""
    csr_matvec(len(indptr) - 1, len(x), indptr, indices, data, x, out)


@dataclass(frozen=True, eq=False)
class TransitionModel:
    """Row-stochastic transitions T(x' | x, a) for every action.

    They are stored once, as one read-only CSR matrix ``csr`` of shape
    (|A|*|X|, |X|) whose row a*|X| + x is T(. | x, a), that is, the T(a)
    stacked on top of each other; grid dynamics have at most five non-zeros
    per row, so every product below costs O(nnz) rather than O(|X|^2).
    Dense or sparse per-action input is converted here. The sweep loops
    (``next_values``, ``push_forward``) call scipy's compiled CSR mat-vec
    directly, since at these sizes scipy.sparse's dispatch costs more than
    the arithmetic.
    """

    csr: scipy.sparse.csr_matrix
    n_actions: int
    n_states: int

    def __init__(self, matrices):
        """From per-action |X| x |X| matrices, dense or scipy.sparse."""
        blocks = [scipy.sparse.csr_matrix(m, dtype=float) for m in matrices]
        if not blocks:
            raise ValueError("a transition model needs at least one action")
        n = blocks[0].shape[0]
        if any(b.shape != (n, n) for b in blocks):
            raise ValueError("transition matrices must all be |X| x |X|")
        stacked = scipy.sparse.vstack(blocks, format="csr")
        stacked.eliminate_zeros()
        stacked.sum_duplicates()
        for arr in (stacked.data, stacked.indices, stacked.indptr):
            arr.setflags(write=False)
        object.__setattr__(self, "csr", stacked)
        object.__setattr__(self, "n_actions", len(blocks))
        object.__setattr__(self, "n_states", n)

    @classmethod
    def from_triplets(cls, n_states, triplets):
        """From per-action (rows, cols, values) triplets of T(a)."""
        return cls([scipy.sparse.coo_matrix((v, (r, c)),
                                            shape=(n_states, n_states))
                    for r, c, v in triplets])

    def triplets(self):
        """Per-action (rows, cols, values) of T(a), the inverse of
        ``from_triplets``."""
        coos = (self._block(a).tocoo() for a in range(self.n_actions))
        return [(c.row, c.col, c.data) for c in coos]

    def _block(self, a):
        return self.csr[a * self.n_states:(a + 1) * self.n_states]

    @property
    def per_action(self):
        """Read-only dense T(a) matrices, derived on access (for tests)."""
        return tuple(_frozen(self._block(a).toarray())
                     for a in range(self.n_actions))

    def next_values(self, v):
        """(|X|, |A|) table of (T(a) v)(x), all actions in one product.

        The table is column-major (a transposed (|A|, |X|) array): added to
        a column-major reward table, the per-state reductions over actions
        in soft and hard VI then run over contiguous memory, several times
        faster than over rows of length |A|.
        """
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n_states,):
            raise ValueError(f"value vector has shape {v.shape}, "
                             f"expected ({self.n_states},)")
        out = np.zeros(self.n_actions * self.n_states)
        _matvec_add(self.csr.indptr, self.csr.indices, self.csr.data, v, out)
        return out.reshape(self.n_actions, self.n_states).T

    @functools.cached_property
    def _forward_pattern(self):
        """The union pattern of the T(a)^T, on which every F^T is gathered:
        CSR (indptr, indices) of F^T, which are F's CSC arrays, where column
        x of entry (y, x) is also the state it reads weights from, and one
        row per action of T(y | x, a) aligned with the entries, 0 where T(a)
        has no such entry. Built on first use, as it costs more than the
        rest of construction."""
        n, csr = self.n_states, self.csr
        rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
        actions, states = np.divmod(rows, n)
        keys, where = np.unique(csr.indices.astype(np.int64) * n + states,
                                return_inverse=True)
        values = np.zeros((self.n_actions, keys.size))
        values[actions, where] = csr.data
        targets, sources = np.divmod(keys, n)
        indptr = np.zeros(n + 1, dtype=csr.indptr.dtype)
        np.cumsum(np.bincount(targets, minlength=n), out=indptr[1:])
        # read-only, since every F from ``weighted`` shares indptr and indices
        return (_frozen(indptr, indptr.dtype),
                _frozen(sources, csr.indices.dtype), _frozen(values))

    def _gather(self, weights):
        """CSR arrays of F^T = sum_a T(a)^T diag(w_a) on ``_forward_pattern``,
        actions added in ascending order, an absent T(a) entry an exact 0."""
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.n_states, self.n_actions):
            raise ValueError(f"weights have shape {weights.shape}, expected "
                             f"({self.n_states}, {self.n_actions})")
        indptr, indices, values = self._forward_pattern
        data = weights[indices, 0] * values[0]
        for a in range(1, self.n_actions):
            data += weights[indices, a] * values[a]
        return indptr, indices, data

    def weighted(self, weights):
        """Sparse F = sum_a diag(weights[:, a]) T(a) for (|X|, |A|) weights
        such as choice probabilities or a policy, as CSC: its arrays are
        F^T's CSR ones from ``_gather``."""
        indptr, indices, data = self._gather(weights)
        return scipy.sparse.csc_matrix(
            (data, indices, indptr), shape=(self.n_states, self.n_states))

    def push_forward(self, weights, start, steps):
        """(steps+1, |X|) array of occupancies d_0 = start and
        d_{i+1} = F^T d_i, with F = weighted(weights)."""
        indptr, indices, data = self._gather(weights)
        layers = np.zeros((steps + 1, self.n_states))
        layers[0] = start
        for i in range(steps):
            _matvec_add(indptr, indices, data, layers[i], layers[i + 1])
        return layers

    @functools.cached_property
    def next_state_cdfs(self):
        """(next states, CDFs), both (|A|*|X|, w) for w the largest row nnz:
        row a*|X| + x lists the states T(. | x, a) reaches, columns
        ascending, and the cumulative sums of their probabilities divided
        by the row total, as ``Generator.choice`` builds them. Rows are
        padded with state 0 and CDF 1.0, which no uniform in [0, 1)
        selects, so a row's draw is the count of its CDF entries <= u.
        """
        csr = self.csr
        nnz = np.diff(csr.indptr)
        rows = np.repeat(np.arange(csr.shape[0]), nnz)
        cols = np.arange(csr.nnz) - csr.indptr[rows]
        width = int(nnz.max())
        states = np.zeros((csr.shape[0], width), dtype=np.int64)
        states[rows, cols] = csr.indices
        cdf = np.zeros((csr.shape[0], width))
        cdf[rows, cols] = csr.data
        cdf = cdf.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        return _frozen(states, dtype=np.int64), _frozen(cdf)


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-state feature rows; values[x] = f(x)."""

    values: np.ndarray

    def __init__(self, values):
        object.__setattr__(self, "values", _frozen(values))
        if self.values.ndim != 2:
            raise ValueError("feature matrix must be 2-D (states x features)")

    @property
    def feature_dim(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class Trajectory:
    """Ordered (state, action) pairs observed from a demonstrator."""

    steps: np.ndarray

    def __init__(self, steps):
        arr = np.asarray(steps, dtype=np.int64).reshape(-1, 2)
        if len(arr) < 1:
            raise ValueError("trajectory must contain at least one step")
        object.__setattr__(self, "steps", _frozen(arr, dtype=np.int64))

    def __len__(self):
        return self.steps.shape[0]

    @property
    def states(self):
        return self.steps[:, 0]

    @property
    def actions(self):
        return self.steps[:, 1]


@dataclass(frozen=True)
class CCPTable:
    """Empirical conditional choice probabilities sigma(a|x) plus raw counts."""

    probs: np.ndarray
    support_counts: np.ndarray

    def __init__(self, probs, support_counts):
        object.__setattr__(self, "probs", _frozen(probs))
        object.__setattr__(
            self, "support_counts", _frozen(support_counts, dtype=np.int64)
        )

    @property
    def n_states(self):
        return self.probs.shape[0]

    @property
    def n_actions(self):
        return self.probs.shape[1]


@dataclass(frozen=True)
class ExAnteValue:
    """Shock-integrated value function, one entry per state."""

    values: np.ndarray

    def __init__(self, values):
        object.__setattr__(self, "values", _frozen(values).reshape(-1))


@dataclass(frozen=True)
class SoftPolicy:
    """Model-implied choice probabilities pi(a|x), row-stochastic."""

    probs: np.ndarray

    def __init__(self, probs):
        object.__setattr__(self, "probs", _frozen(probs))


@dataclass(frozen=True)
class DdcModel:
    n_states: int
    n_actions: int
    transitions: TransitionModel
    discount: float
    features: FeatureMatrix
    initial_dist: np.ndarray
    goal_states: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "initial_dist", _frozen(self.initial_dist))
        object.__setattr__(self, "goal_states", frozenset(self.goal_states))


def validate_model(model):
    """Check every structural invariant; returns a list of violation strings.

    An empty list means the model is well-formed. This reports rather than
    raises so callers can surface all problems at once. Transitions are
    checked on their stored non-zeros, without a dense copy.
    """
    report = []
    if model.n_states < 1:
        report.append("n_states must be positive")
    if model.n_actions < 1:
        report.append("n_actions must be positive")
    if not (0.0 <= model.discount < 1.0):
        report.append(
            f"discount must lie in [0, 1); got {model.discount} "
            "(discount >= 1 makes the value operator non-invertible)"
        )
    trans = model.transitions
    if trans.n_actions != model.n_actions:
        report.append(f"transition model has {trans.n_actions} actions, "
                      f"expected {model.n_actions}")
    elif trans.n_states != model.n_states:
        report.append(f"transition matrices are {trans.n_states} x "
                      f"{trans.n_states}, expected {model.n_states} x "
                      f"{model.n_states}")
    else:
        data = trans.csr.data
        outside = ~((data >= 0.0) & (data <= 1.0))
        if np.any(outside):
            rows = np.repeat(np.arange(trans.csr.shape[0]),
                             np.diff(trans.csr.indptr))
            for a in np.unique(rows[outside] // trans.n_states):
                report.append(f"transition matrix for action {a} has "
                              "entries outside [0, 1]")
        sums = np.asarray(trans.csr.sum(axis=1)).ravel()
        bad = np.flatnonzero(~(np.abs(sums - 1.0) <= ROW_SUM_TOL))
        for i in bad[:5]:
            a, row = divmod(int(i), trans.n_states)
            report.append(
                f"transition row {row} for action {a} sums to "
                f"{sums[i]:.6g}, not 1"
            )
    if model.features.values.shape[0] != model.n_states:
        report.append("feature matrix row count does not match n_states")
    if not np.all(np.isfinite(model.features.values)):
        report.append("feature matrix contains non-finite entries")
    if model.initial_dist.shape != (model.n_states,):
        report.append("initial distribution has wrong length")
    else:
        if np.any(model.initial_dist < 0.0):
            report.append("initial distribution has negative entries")
        if abs(model.initial_dist.sum() - 1.0) > ROW_SUM_TOL:
            report.append(
                f"initial distribution sums to {model.initial_dist.sum():.6g}, not 1"
            )
    for g in model.goal_states:
        if not (0 <= g < model.n_states):
            report.append(f"goal state {g} out of range")
    return report


def check_trajectories(trajectories, n_states, n_actions=None):
    """Raise InvalidInput unless every state index lies in [0, n_states)
    and, if n_actions is given, every action index in [0, n_actions)."""
    for i, traj in enumerate(trajectories):
        for kind, idx, bound in (("state", traj.states, n_states),
                                 ("action", traj.actions, n_actions)):
            if bound is None:
                continue
            bad = idx[(idx < 0) | (idx >= bound)]
            if bad.size:
                raise InvalidInput(
                    f"trajectory {i} has {kind} index {int(bad[0])} outside "
                    f"[0, {bound})")


# ---------------------------------------------------------------------------
# Serialization. Trajectories: a JSON array of trajectories, each an array of
# [state, action] pairs. Models: dimensions, discount, per-action sparse
# transitions as {"rows", "cols", "values"} triplets, feature matrix, initial
# distribution, and goal states.
# ---------------------------------------------------------------------------


def trajectories_to_json(trajectories):
    return [[[int(s), int(a)] for s, a in t.steps] for t in trajectories]


def trajectories_from_json(data):
    return [Trajectory(t) for t in data]


def save_trajectories(path, trajectories):
    with open(path, "w") as fh:
        json.dump(trajectories_to_json(trajectories), fh)


def load_trajectories(path):
    """Read a trajectory file; raises InvalidInput if it is malformed."""
    try:
        with open(path) as fh:
            return trajectories_from_json(json.load(fh))
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed trajectory file {path}: {exc}") from exc


def model_to_json(model):
    return {
        "n_states": model.n_states,
        "n_actions": model.n_actions,
        "discount": model.discount,
        "transitions": [
            {"rows": r.tolist(), "cols": c.tolist(), "values": v.tolist()}
            for r, c, v in model.transitions.triplets()
        ],
        "features": model.features.values.tolist(),
        "initial_dist": model.initial_dist.tolist(),
        "goal_states": sorted(model.goal_states),
    }


def model_from_json(data):
    """Rebuild a model; raises InvalidInput for a malformed document,
    including one in the dense transition layout of earlier versions."""
    try:
        blocks = data["transitions"]
        if any(not isinstance(b, dict) for b in blocks):
            raise InvalidInput(
                "model file stores dense transition matrices, a layout this "
                "version no longer reads; rerun `ccpirl gen-env` to "
                "regenerate it")
        n = int(data["n_states"])
        return DdcModel(
            n_states=n,
            n_actions=int(data["n_actions"]),
            transitions=TransitionModel.from_triplets(
                n, [(b["rows"], b["cols"], b["values"]) for b in blocks]),
            discount=float(data["discount"]),
            features=FeatureMatrix(np.asarray(data["features"], dtype=float)),
            initial_dist=np.asarray(data["initial_dist"], dtype=float),
            goal_states=frozenset(data["goal_states"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed model file: {exc}") from exc


def save_model(path, model):
    with open(path, "w") as fh:
        fh.write(json.dumps(model_to_json(model)))


def load_model(path):
    """Read and validate a model file; raises InvalidInput if it is
    malformed or fails validate_model."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except ValueError as exc:
        raise InvalidInput(f"model file {path} is not JSON: {exc}") from exc
    model = model_from_json(data)
    problems = validate_model(model)
    if problems:
        raise InvalidInput(f"invalid model file {path}: " + "; ".join(problems))
    return model
