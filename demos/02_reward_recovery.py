"""Recover a gridworld reward from demonstrations with both trainers.

Generates soft-optimal expert trajectories on a fixed-target gridworld,
then fits a linear reward twice: once with the full inner dynamic
programming solve per iteration, once with estimated choice
probabilities and the linear inversion. Both should land on rewards
whose induced policies are far better than uniform.
"""

import numpy as np

from ccpirl import (
    GradientAscent,
    GridSpec,
    LinearReward,
    build_fixed_target,
    evd,
    generate_experts,
    nll,
    soft_optimal_policy,
    train_ccp,
    train_maxent,
    uniform_policy,
)


def main():
    model, true_reward = build_fixed_target(GridSpec(n=8, seed=0),
                                            discount=0.95)
    demos = generate_experts(model, true_reward, 64, 32, seed=7)
    print(f"{len(demos)} demonstrations on a "
          f"{model.n_states}-state gridworld")

    uni = evd(model, true_reward,
              uniform_policy(model.n_states, model.n_actions))
    print(f"uniform-policy EVD (the do-nothing baseline): {uni:.3f}")

    for name, trainer in (("maxent", train_maxent), ("ccp", train_ccp)):
        reward = LinearReward(np.zeros(model.features.feature_dim))
        report = trainer(model, demos, reward, GradientAscent(0.1), 50)
        policy = soft_optimal_policy(model, report.final_rewards)
        print(f"{name:7s} EVD {evd(model, true_reward, policy):.3f}  "
              f"NLL {nll(policy, demos):.4f}  "
              f"wall time {report.total_seconds:.1f}s")


if __name__ == "__main__":
    main()
