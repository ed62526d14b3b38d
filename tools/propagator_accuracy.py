"""Accuracy and cost of the Magnus-Filon propagator against the midpoint rule.

For the embedded scenario (dim 66, multiplicity 3, seed 0) and the pure point
scenario (dim 16, seed 0) on an 11-point s-grid, and for the Fermi scenario
of the ``fermi_dense_grid`` workload (dim 66, multiplicity 3, seed 11) on its
301-point grid 9e-4 apart, whose intervals are shorter than the Magnus-Filon
step, and for each tau, prints:

* the Magnus-Filon step count and its wall time in seconds;
* its largest error over the grid points against the reference
  W_ref = (4 W_mid(step/8) - W_mid(step/4)) / 3, the Richardson
  extrapolation of the midpoint rule, where step is the midpoint rule's
  default step at that tau;
* the midpoint rule's step count, its wall time in seconds and its own error
  against the same reference at its default step.

The two wall times over the two step counts give the cost of a step of each
scheme.

Only numpy and slowdrive are used. The references dominate the run time:
at tau = 1e4 the embedded reference takes 1.2 million midpoint steps, several
minutes on one core.

Usage: PYTHONPATH=src python tools/propagator_accuracy.py [--taus 10,100,1000,10000]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from slowdrive.operators import operator_norm
from slowdrive.propagation import default_step, evolve
from slowdrive.scenarios import ScenarioConfig, build_scenario

GRID = np.linspace(0.0, 1.0, 11)
# (scenario, params, seed, s-grid)
SCENARIOS = (
    ("embedded_eigenvalue", {"grid_points": 63, "multiplicity": 3}, 0, GRID),
    ("pure_point_omega", {"dim": 16}, 0, GRID),
    ("fermi_observable", {"grid_points": 63, "multiplicity": 3}, 11,
     np.round(np.arange(301) * 9e-4, 12)),
)


def worst_error(result, reference: np.ndarray) -> float:
    return max(operator_norm(a - b) for a, b in zip(result.unitaries, reference))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--taus", default="10,100,1000,10000",
                        help="comma-separated tau values (default: %(default)s)")
    taus = [float(t) for t in parser.parse_args(argv).taus.split(",")]
    print(f"{'scenario':<20} {'tau':>7} {'MF steps':>8} {'MF s':>7} {'MF error':>9} "
          f"{'mid steps':>9} {'mid s':>7} {'mid error':>9}")
    for name, params, seed, grid in SCENARIOS:
        config = ScenarioConfig(scenario=name, params=params, taus=(1.0,), seed=seed)
        inst = build_scenario(config)
        for tau in taus:
            step = default_step(tau, inst.h_o.norm(), inst.path.kappa)
            start = time.perf_counter()
            magnus = evolve(inst.h_o, inst.path, tau, grid)
            mid_start = time.perf_counter()
            midpoint = evolve(inst.h_o, inst.path, tau, grid, step=step)
            mid_end = time.perf_counter()
            fine, coarse = (
                evolve(inst.h_o, inst.path, tau, grid, step=step / k).unitaries for k in (8, 4)
            )
            reference = (4.0 * fine - coarse) / 3.0
            print(f"{name:<20} {tau:>7g} {magnus.steps:>8d} {mid_start - start:>7.3f} "
                  f"{worst_error(magnus, reference):>9.1e} {midpoint.steps:>9d} "
                  f"{mid_end - mid_start:>7.3f} {worst_error(midpoint, reference):>9.1e}  "
                  f"[{magnus.scheme}]", flush=True)


if __name__ == "__main__":
    main()
