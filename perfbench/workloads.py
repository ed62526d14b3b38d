"""Workload definitions: each one turns a benchmark seed into one slowdrive
sweep config, and records why it was chosen and which layer should dominate.

The program under test only ever sees the generated config file.

Seeds: the benchmark seed selects one of ``POOL`` input draws, and draw ``k``
uses config seed ``base_seed + k``. Seed 0 therefore reproduces the seeds of
the demo configs in ``configs/``. Every draw in the pool has a stored
fine-step reference (``perfbench/reference/``) for the accuracy gate, and an
all-PASS verdict checked when that reference was made.
"""

from __future__ import annotations

from dataclasses import dataclass

POOL = 16

# Accuracy gate on the per-tau sups: relative deviation from the fine-step
# reference. Step-headroom measurements on the embedded scenario at tau = 1e3
# give 1.7e-6 at 10x the default step and 3.7e-3 at 100x; 1e-4 accepts the
# first and rejects the second.
ACCURACY_TOL = 1e-4
# Reference sups below this are compared absolutely (values this small sit
# at the level of the propagator's own unitarity drift).
ABS_FLOOR = 1e-9

# The fine-step reference uses the program's default step divided by this.
REFERENCE_REFINE = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Layer groups (see worker.dominant) whose combined share of a traced
    # sweep should exceed that of any other group.
    dominant: tuple[str, ...]
    base_seed: int
    config: dict  # everything but the seed

    def config_seed(self, seed: int) -> int:
        return self.base_seed + seed % POOL

    def make_config(self, seed: int) -> dict:
        return dict(self.config, seed=self.config_seed(seed), threads=1)


def _uniform_grid(points: int, spacing: float) -> dict:
    return {"values": [round(i * spacing, 12) for i in range(points)]}


_GAP = {"e1": -0.25, "e2": 0.25}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="embedded_long_tau",
            why="dim-66 embedded eigenvalue at tau up to 316; steps grow as tau*|H_o|, "
            "so the propagator (eigh per step) is the cost",
            dominant=("propagation.evolve",),
            base_seed=11,
            config={
                "scenario": "embedded_eigenvalue",
                "params": {"grid_points": 63, "multiplicity": 3, "kappa": 1.0},
                "taus": [10**1.5, 100.0, 10**2.5],
                "s_grid": {"points": 11},
                "metrics": ["resolvent", "heisenberg_sot:p_embedded", "embedded_offblock"],
                "metric_params": {
                    "heisenberg_sot:p_embedded": {"decay_factor": 0.5},
                    "embedded_offblock": {"decay_factor": 0.5},
                },
            },
        ),
        Workload(
            name="direct_sum_build",
            why="dim-64 direct sum with 64 distinct levels and a constant drive; "
            "decomposition and re-diagonalising the same generator dominate",
            dominant=("operators.decomp", "propagation.evolve"),
            base_seed=1,
            config={
                "scenario": "direct_sum_counterexample",
                "params": {"blocks": 32},
                "taus": [4.0, 8.0, 16.0, 32.0],
                "s_grid": {"values": [0.0, 0.25, 0.5, 0.75, 1.0]},
                "metrics": [
                    "heisenberg_norm:negative_energies",
                    "heisenberg_sot:negative_energies",
                ],
                "metric_params": {
                    "heisenberg_norm:negative_energies": {
                        "floor": {"s": 0.5, "min_value": 0.413}
                    },
                    "heisenberg_sot:negative_energies": {
                        "ceiling": {"tau": 32.0, "max_value": 0.05, "vectors": ["block1_up"]}
                    },
                },
            },
        ),
        Workload(
            name="fermi_dense_grid",
            why="dim-66 Fermi observables on a 301-point s-grid with one sub-step per "
            "point; eight metrics and ~16k CSV rows outweigh the propagation",
            dominant=("metrics", "output"),
            base_seed=11,
            config={
                "scenario": "fermi_observable",
                "params": {"grid_points": 63, "multiplicity": 3},
                "taus": [10.0, 10**1.5],
                "s_grid": _uniform_grid(301, 9e-4),
                "metrics": [
                    "resolvent",
                    "heisenberg_norm:fermi",
                    "heisenberg_norm:filled_below_mu",
                    "heisenberg_sot:filled_below_mu",
                    "heisenberg_sot:p_embedded",
                    "embedded_offblock",
                    "offdiag_low_high",
                    "offdiag_high_low",
                ],
                "metric_params": {},
            },
        ),
        Workload(
            name="pure_point_long",
            why="dim-16 pure point spectrum at tau up to 1e3; ~12k small steps where "
            "interpreter overhead, not LAPACK, sets the cost; only user of omega_infinity",
            dominant=("propagation.evolve",),
            base_seed=0,
            config={
                "scenario": "pure_point_omega",
                "params": {"dim": 16},
                "taus": [10.0, 100.0, 1000.0],
                "s_grid": {"points": 11},
                "metrics": ["schrodinger_limit", "offdiag_low_high", "offdiag_high_low"],
                "metric_params": {
                    "schrodinger_limit": {"decay_factor": 0.5},
                    "offdiag_low_high": dict(_GAP),
                    "offdiag_high_low": dict(_GAP),
                },
            },
        ),
    )
}

