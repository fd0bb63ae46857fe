"""CCP-based closed form for the ex-ante value function.

With sigma the choice probabilities, the value fixed point is linear:

    Vbar = [I - beta * F]^{-1} b,
    F    = sum_a diag(sigma(a|.)) T(a)          (row-stochastic),
    b(x) = sum_a sigma(a|x) (r(x,a) + shock_correction(a|x)).

The inverse depends only on sigma, beta, and T, so it is built once and
reused for every reward evaluation. F is sparse (it has the non-zeros of
the transitions), built by ``TransitionModel.weighted`` on the pattern
the forward pass reads. The operator factorizes (I - beta*F) once with a
sparse LU and back-substitutes per reward.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .ccp import expected_shock
from .errors import SingularMatrix
from .instrumentation import counters
from .model import ExAnteValue


@dataclass
class HotzMillerOperator:
    ccp: object
    shock_correction: np.ndarray  # (|X|, |A|)
    lu: "scipy.sparse.linalg.SuperLU"  # of I - beta*F


def factorize(F, beta):
    """Sparse LU factors of I - beta*F; raises SingularMatrix if there are
    none."""
    # imported here, so that a process that never factorizes (gen-env,
    # gen-experts, a maxent training) does not load scipy.sparse.linalg
    from scipy.sparse.linalg import splu

    system = scipy.sparse.identity(F.shape[0], format="csc") - beta * F
    if not np.all(np.isfinite(system.data)):
        raise SingularMatrix("I - beta*F has non-finite entries")
    try:
        return splu(system)
    except RuntimeError as exc:
        raise SingularMatrix(f"factorization of I - beta*F failed: {exc}") from exc


def build_operator(model, ccp):
    """Assemble the sparse F and its one-time factorization."""
    counters.operator_builds += 1
    F = model.transitions.weighted(ccp.probs)
    shock_correction = expected_shock(ccp)
    counters.factorizations += 1
    return HotzMillerOperator(
        ccp=ccp,
        shock_correction=shock_correction,
        lu=factorize(F, model.discount),
    )


def weighted_flow_reward(op, rewards):
    """b(x) = sum_a sigma(a|x) (r(x,a) + shock_correction(a|x))."""
    r = np.asarray(rewards, dtype=float)
    return np.sum(op.ccp.probs * (r + op.shock_correction), axis=1)


def exante_value(op, rewards):
    """Evaluate Vbar for a reward table without any dynamic programming."""
    counters.exante_evals += 1
    return ExAnteValue(op.lu.solve(weighted_flow_reward(op, rewards)))

