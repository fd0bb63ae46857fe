"""Inverse reinforcement learning on dynamic-discrete-choice MDPs.

Two trainers recover rewards from demonstrations: the classic loop that
re-solves a soft Bellman fixed point at every gradient step, and a
choice-probability loop that replaces the per-step solve with one
precomputed linear operator.
"""

from .ccp import SmoothingConfig, estimate_ccp, expected_shock
from .engine import (
    TrainReport,
    VisitationResult,
    feature_expectations_from_visitation,
    forward_pass,
    train_ccp,
    train_maxent,
)
from .envs import (
    GridSpec,
    ObjectworldSpec,
    TrueReward,
    build_fixed_target,
    build_macro_cell,
    build_objectworld,
    generate_experts,
)
from .errors import (
    CcpIrlError,
    EmptyData,
    InvalidInput,
    MaxSweepsExceeded,
    NonFiniteGradient,
    NonPositiveProbability,
    SingularMatrix,
)
from .hotzmiller import (
    HotzMillerOperator,
    build_operator,
    exante_value,
)
from .metrics import (
    evd,
    hard_value_iteration,
    nll,
    policy_evaluation,
    soft_optimal_policy,
    uniform_policy,
)
from .model import (
    CCPTable,
    DdcModel,
    ExAnteValue,
    FeatureMatrix,
    SoftPolicy,
    Trajectory,
    TransitionModel,
    check_trajectories,
    load_model,
    load_trajectories,
    save_model,
    save_trajectories,
    validate_model,
)
from .rewards import (
    Adam,
    GradientAscent,
    LinearReward,
    MlpReward,
    broadcast_rewards,
    mlp_backward,
    mlp_forward,
    reward_table,
)
from .softdp import (
    EULER_GAMMA,
    SoftDpConfig,
    choice_values,
    policy_from_values,
    solve_soft_vi,
)

__version__ = "0.1.0"
