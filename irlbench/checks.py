"""Correctness checks on a workload's outputs.

Each check compares an output with a property of the method or with an
independent computation, and returns a ``Check``. A run is correct when
every check it made passed.
"""

import math
from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-9
MASS_TOL = 1e-9
# Relative agreement of the Hotz-Miller value with converged soft VI. Soft VI
# converged to 1e-10 is off by at most 1e-10 * beta / (1 - beta), about 1e-8
# at beta 0.99, or 3e-11 of the values; a wrong CCP table is off by orders
# of magnitude more.
IDENTITY_RTOL = 1e-8
# Relative agreement of ``ccpirl eval`` with the same evaluation in-process.
CLI_RTOL = 1e-9
PARITY_SHARE = 0.1


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str

    def to_json(self):
        return {"name": self.name, "ok": bool(self.ok), "detail": self.detail}


def policy_rows(name, probs):
    """Every row sums to 1 and every entry lies in (0, 1]."""
    probs = np.asarray(probs, dtype=float)
    row_err = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    lo, hi = float(probs.min()), float(probs.max())
    ok = row_err <= ROW_SUM_TOL and lo > 0.0 and hi <= 1.0
    return Check(name, ok, f"max |row sum - 1| {row_err:.3g}, "
                           f"entries in [{lo:.3g}, {hi:.3g}]")


def forward_mass(name, step_masses, conserving):
    """Total mass never increases from one step to the next; without goal
    states (``conserving``) every step holds mass 1."""
    m = np.asarray(step_masses, dtype=float)
    rise = float(np.max(np.diff(m), initial=0.0))
    off = float(np.max(np.abs(m - 1.0))) if conserving else 0.0
    ok = rise <= MASS_TOL and off <= MASS_TOL
    detail = f"largest step-to-step rise {rise:.3g}"
    if conserving:
        detail += f", largest |mass - 1| {off:.3g}"
    return Check(name, ok, detail)


def hotz_miller_identity(name, v_operator, v_soft_vi):
    """The operator built from the exact soft-optimal CCPs reproduces the
    converged soft-VI value."""
    v_operator = np.asarray(v_operator, dtype=float)
    v_soft_vi = np.asarray(v_soft_vi, dtype=float)
    scale = max(1.0, float(np.max(np.abs(v_soft_vi))))
    err = float(np.max(np.abs(v_operator - v_soft_vi)))
    return Check(name, err <= IDENTITY_RTOL * scale,
                 f"max |error| {err:.3g} against values up to {scale:.4g}")


def hard_vi_consistent(name, v_optimal, v_greedy, tolerance, beta):
    """Hard VI's values match the exact value of its greedy policy within
    tolerance / (1 - beta)."""
    err = float(np.max(np.abs(np.asarray(v_optimal) - np.asarray(v_greedy))))
    bound = tolerance / (1.0 - beta)
    return Check(name, err <= bound, f"max |error| {err:.3g} <= {bound:.3g}")


def evd_range(name, value, uniform_evd, slack):
    """0 - slack <= EVD < the uniform policy's EVD."""
    ok = -slack <= value < uniform_evd
    return Check(name, ok, f"evd {value:.6g}, uniform {uniform_evd:.6g}")


def uniform_nll(mean_length, n_actions):
    """Demo NLL of the uniform policy in closed form."""
    return mean_length * math.log(n_actions)


def nll_below_uniform(name, value, mean_length, n_actions):
    bound = uniform_nll(mean_length, n_actions)
    return Check(name, value < bound, f"nll {value:.6g}, uniform {bound:.6g}")


def parity(name, ccp_evd, maxent_evd, uniform_evd):
    """The paper's quality claim: the two trainers' EVDs differ by at most
    a tenth of the uniform policy's EVD."""
    gap = abs(ccp_evd - maxent_evd)
    bound = PARITY_SHARE * uniform_evd
    return Check(name, gap <= bound, f"gap {gap:.4g}, bound {bound:.4g}")


def cost_model(name, delta, soft_vi_solves, operator_builds):
    """Counter deltas of one training against the trainer's cost model."""
    got = (delta["soft_vi_solves"], delta["operator_builds"])
    ok = got == (soft_vi_solves, operator_builds)
    return Check(name, ok, f"soft-VI solves {got[0]} (want {soft_vi_solves}), "
                           f"operator builds {got[1]} (want {operator_builds})")


def spans_match_counters(name, span_counts, counter_delta, layer_counters):
    """Every counted call went through a traced name."""
    pairs = {layer: (span_counts.get(layer, 0), counter_delta[counter])
             for layer, counter in layer_counters.items()}
    ok = all(spans == counted for spans, counted in pairs.values())
    return Check(name, ok, ", ".join(
        f"{layer} {spans} spans / {counted} counted"
        for layer, (spans, counted) in pairs.items()))


def same_value(name, got, want, rtol):
    err = abs(got - want)
    return Check(name, err <= rtol * max(1.0, abs(want)),
                 f"{float(got)!r} against {float(want)!r}")
