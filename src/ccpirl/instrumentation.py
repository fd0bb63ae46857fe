"""Global call counters used to verify the cost model of the two trainers.

The counters exist so tests can assert, for example, that the CCP trainer
never calls the soft value-iteration solver after setup and that the
operator is factorized exactly once.
"""

from dataclasses import dataclass


@dataclass
class Counters:
    soft_vi_solves: int = 0
    operator_builds: int = 0
    factorizations: int = 0
    exante_evals: int = 0

    def reset(self):
        self.soft_vi_solves = 0
        self.operator_builds = 0
        self.factorizations = 0
        self.exante_evals = 0

    def snapshot(self):
        return {
            "soft_vi_solves": self.soft_vi_solves,
            "operator_builds": self.operator_builds,
            "factorizations": self.factorizations,
            "exante_evals": self.exante_evals,
        }


counters = Counters()
