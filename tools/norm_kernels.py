"""Cost and accuracy of the norm kernels behind heisenberg_norm and resolvent.

For each dimension, H_o is a seeded random Hermitian matrix (a dense
eigenbasis V, nondegenerate) and the frames U = V^+ W V run over seeded random
unitaries. The result holds them in the eigenbasis of H_o, as ``evolve``
stores them, so the kernels take the route a sweep takes. For each route the
script prints the microseconds per grid point of the full SVD of
W A W^+ - A with W = V U V^+ (``operator_norm``, the reference) and of the
library's kernel, and the largest relative deviation of the kernel from the
reference:

* ``half-rank``  chi(H_o <= median): an index block of U for a two-valued A;
* ``rank-3``     chi(H_o <= third eigenvalue): the same route, a thin block;
* ``fermi``      the Fermi function at mu = 0, beta = 10: eigvalsh of the
  Hermitian difference (U * f) U^+ - diag(f);
* ``resolvent``  (H_o - i)^-1: eigvalsh of the Gram matrix of
  U * (rho_k - rho_j), rho = 1/(w - i).

A second table times the unitarity check of every grid point on near-unitaries
W + 1e-9 * noise: the SVD 2-norm of W^+ W - 1 (the reference) against
``unitarity_drift``, its Frobenius norm, with the largest ratio drift / 2-norm,
which lies in [1, sqrt(dim)].

Only numpy and slowdrive are used.

Usage: PYTHONPATH=src python tools/norm_kernels.py [--dims 16,66,128,256]
       [--points 32] [--repeat 3]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from slowdrive.diagnostics import heisenberg_distance_norm, resolvent_distance
from slowdrive.operators import HermitianOperator, operator_norm, unitarity_drift
from slowdrive.propagation import PropagatorResult
from slowdrive.spectral import calculus_continuous, fermi_dirac, projection_leq

ROUTES = ("half-rank", "rank-3", "fermi", "resolvent")


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _best_seconds(fns, repeat: int):
    """The best wall time of each function and its last result. The
    functions take turns, so a change of host speed reaches all of them."""
    best, out = [float("inf")] * len(fns), [None] * len(fns)
    for _ in range(repeat):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            out[i] = fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best, out


def measure(dim: int, points: int, repeat: int = 3) -> list[tuple]:
    """(route, SVD us per point, kernel us per point, largest relative
    deviation) for each route at one dimension; U(0) = 1 and points - 1
    random unitary frames in the eigenbasis of H_o."""
    rng = np.random.default_rng(0)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h_o = HermitianOperator((g + g.conj().T) / 2)
    d = h_o.decomposition
    frames = [np.eye(dim)] + [_random_unitary(rng, dim) for _ in range(points - 1)]
    result = PropagatorResult(
        tau=1.0, s_grid=np.linspace(0.0, 1.0, points), frames=np.array(frames),
        step=1.0, scheme="random", basis=d,
    )
    unitaries = result.unitaries
    observables = {
        "half-rank": projection_leq(d, float(np.median(d.eigenvalues))),
        "rank-3": projection_leq(d, float(d.eigenvalues[2])),
        "fermi": calculus_continuous(d, fermi_dirac(0.0, 10.0)),
    }
    kernels = {name: lambda a=a: heisenberg_distance_norm(h_o, result, a)[0]
               for name, a in observables.items()}
    kernels["resolvent"] = lambda: resolvent_distance(h_o, result, 1j).values
    matrices = {name: a.matrix for name, a in observables.items()}
    matrices["resolvent"] = np.linalg.inv(h_o.matrix - 1j * np.eye(dim))

    rows = []
    for route in ROUTES:
        a = matrices[route]
        (svd_s, kernel_s), (want, got) = _best_seconds(
            [
                lambda: np.array([operator_norm(w @ a @ w.conj().T - a) for w in unitaries]),
                kernels[route],
            ],
            repeat,
        )
        deviation = float(np.max(np.abs(got[1:] - want[1:]) / want[1:]))
        rows.append((route, 1e6 * svd_s / points, 1e6 * kernel_s / points, deviation))
    return rows


def measure_drift(dim: int, points: int, repeat: int = 3) -> tuple[float, float, float]:
    """(SVD us per point, ``unitarity_drift`` us per point, largest ratio of
    the drift to the SVD 2-norm of W^+ W - 1) over ``points`` seeded
    near-unitaries W + 1e-9 * noise at one dimension."""
    rng = np.random.default_rng(1)
    near = [
        _random_unitary(rng, dim) + 1e-9 * rng.standard_normal((dim, dim))
        for _ in range(points)
    ]
    eye = np.eye(dim)
    (svd_s, drift_s), (want, got) = _best_seconds(
        [
            lambda: np.array([operator_norm(w.conj().T @ w - eye) for w in near]),
            lambda: np.array([unitarity_drift(w) for w in near]),
        ],
        repeat,
    )
    return 1e6 * svd_s / points, 1e6 * drift_s / points, float(np.max(got / want))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", default="16,66,128,256")
    parser.add_argument("--points", type=int, default=32)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    print(f"{'dim':>4} {'route':<10} {'svd_us':>10} {'kernel_us':>10} {'max_rel_dev':>12}")
    dims = [int(x) for x in args.dims.split(",")]
    for dim in dims:
        for route, svd_us, kernel_us, deviation in measure(dim, args.points, args.repeat):
            print(f"{dim:>4} {route:<10} {svd_us:>10.1f} {kernel_us:>10.1f} {deviation:>12.1e}")
    print(f"{'dim':>4} {'route':<10} {'svd_us':>10} {'drift_us':>10} {'max_ratio':>12}"
          f" {'sqrt_dim':>9}")
    for dim in dims:
        svd_us, drift_us, ratio = measure_drift(dim, args.points, args.repeat)
        print(f"{dim:>4} {'drift':<10} {svd_us:>10.1f} {drift_us:>10.1f} {ratio:>12.4f}"
              f" {dim ** 0.5:>9.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
