"""Nonlinear reward recovery on an objectworld.

The objectworld reward depends on distances to randomly placed colored
objects through a rule no linear model can express in the distance
features. A small two-layer network trained with Adam picks it up from
demonstrations alone. The CCP trainer is used here because the network
makes every gradient step more expensive and the saved inner solves
matter more.
"""

import numpy as np

from ccpirl import (
    Adam,
    MlpReward,
    ObjectworldSpec,
    build_objectworld,
    evd,
    generate_experts,
    nll,
    soft_optimal_policy,
    train_ccp,
    uniform_policy,
)


def main():
    model, true_reward = build_objectworld(ObjectworldSpec(n=10, seed=0),
                                           discount=0.95)
    demos = generate_experts(model, true_reward, 128, 40, seed=11)

    reward = MlpReward.init(model.features.feature_dim,
                            hidden_width=32, seed=0)
    report = train_ccp(model, demos, reward, Adam(1e-2), 150)

    policy = soft_optimal_policy(model, report.final_rewards)
    learned = evd(model, true_reward, policy)
    uni = evd(model, true_reward,
              uniform_policy(model.n_states, model.n_actions))
    print(f"trained for {len(report.records)} iterations "
          f"in {report.total_seconds:.1f}s")
    print(f"NLL {nll(policy, demos):.4f}")
    print(f"EVD learned {learned:.3f} vs uniform {uni:.3f}")

    side = int(np.sqrt(model.n_states))
    values = report.final_rewards[:, 0].reshape(side, side)
    print("learned reward over the grid (rounded):")
    for row in np.round(values, 1):
        print("  " + " ".join(f"{v:5.1f}" for v in row))


if __name__ == "__main__":
    main()
