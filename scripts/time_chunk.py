"""CPU time of each stage of one Monte Carlo chunk, layer by layer.

Times the stages of one chunk of `harness._CHUNK` replications, in the
order the cell loop runs them:

- draws: each stream's Gaussian increments;
- running sums and bridge: the Wiener paths and their Brownian bridges;
- projection: each bridge smoothed into the working basis;
- AR loop: the FAR(1) recursion over the chunk's coefficients;
- basis change: B-spline to Fourier coefficients;
- centering: the sample minus its mean;
- lrcov: the long-run covariance and its eigenpairs;
- scores and statistic: the projected partial sums and the standardized
  weighted CUSUM maximum;
- critical value: the cell's calibration, made once per cell;
- chunk: `harness._run_chunk` whole, the sum of the stages a cell
  repeats plus whatever else a chunk computes.

It does so on four cells: the size cells of the `mc_size` benchmark at
n = 100, 300 and 500 (wiener, psi = 0.4, d = 2, plain window, h = 2,
Vostrikova calibration) and one power cell of `mc_power_gumbel`
(gaussian, psi = 0.8, n = 500, d = 5, Bartlett window, h = 4, a sin
change of amplitude 0.15, Gumbel calibration).  Each round runs one
fresh process per `--src` tree, with `OPENBLAS_NUM_THREADS=1`,
alternating which tree goes first; a process times every stage
`--calls` times, one call after another, in CPU time
(`time.process_time`).  The script prints each tree's median and
quartiles in ms over all its calls:

    python scripts/time_chunk.py --rounds 5
    python scripts/time_chunk.py --rounds 7 --src ../parent/src --src src

Before timing, each process checks that the stages put together give
`generate`'s batch bitwise, and exits 1 if they do not.
"""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys
import time

from time_grid import quartiles

SCRIPTS = pathlib.Path(__file__).resolve().parent
SRC = SCRIPTS.parent / "src"
RUN_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import time_chunk; "
             "time_chunk.child(int(sys.argv[2]))")
# (label, ExperimentGrid settings, CellCoords after the index).
CELLS = (
    ("wiener n=100", {}, (100, "wiener", 0.4, 2.0, 2, False)),
    ("wiener n=300", {}, (300, "wiener", 0.4, 2.0, 2, False)),
    ("wiener n=500", {}, (500, "wiener", 0.4, 2.0, 2, False)),
    ("power n=500", {"lag_kernel": "bartlett", "critical_method": "gumbel",
                     "change_amplitude": 0.15},
     (500, "gaussian", 0.8, 4.0, 5, True)),
)


class _Drawn:
    """A generator stand-in whose buffer already holds its draws."""

    def standard_normal(self, out):
        return out


def stages(settings: dict, coords: tuple) -> dict:
    """Stage name -> (set-up, timed call) for one chunk of a cell, on the
    funcusum on sys.path.  A set-up, which is not timed, restores what
    its stage overwrites in place."""
    import numpy as np

    from funcusum import harness, simulate
    from funcusum.basis import FunctionalSample, change_basis, fourier_basis
    from funcusum.cusum import critical_value, scores, statistic
    from funcusum.lrcov import lrcov_estimate

    grid = harness.ExperimentGrid(**settings)
    spec, cfg, crit = harness._cell_setup(
        harness.CellCoords(0, *coords), grid)
    sim = simulate.Far1Simulator(spec)
    streams = [(grid.seed, 0, rep) for rep in range(harness._CHUNK)]
    size, total = len(sim.grid), spec.burn_in + spec.n
    draws = np.empty((len(streams), total, size - 1))
    bridges = np.empty((len(streams), total, size))
    coeffs = np.empty((total, len(streams), spec.basis_size))

    def draw():
        for stream, out in zip(streams, draws):
            np.random.default_rng(np.random.SeedSequence(stream)
                                  ).standard_normal(out=out)

    draw()
    drawn = draws.copy()
    if hasattr(simulate, "_wiener_paths"):
        group = simulate._GROUP

        def bridge():
            for first in range(0, len(streams), group):
                wiener = simulate._wiener_paths(
                    sim.grid, [_Drawn()] * group,
                    draws[first:first + group])
                for b, paths in enumerate(wiener, start=first):
                    simulate._bridges(sim.grid, paths, bridges[b])
    else:  # a tree whose _bridges draws and sums one stream's paths
        def bridge():
            for b in range(len(streams)):
                simulate._bridges(sim.grid, _Drawn(), bridges[b], draws[b])

    def project():
        for b, one in enumerate(bridges):
            np.matmul(one, sim._smoother.T, out=coeffs[:, b, :])

    def ar_loop():
        prod = np.zeros((len(streams), spec.basis_size, 1))
        for state in coeffs:
            state += prod[..., 0]
            np.matmul(sim._step, state[..., None], out=prod)

    bridge()
    project()
    shocks = coeffs.copy()
    ar_loop()
    raw = coeffs[spec.burn_in:].transpose(1, 0, 2).copy()
    if sim._delta_coeffs is not None:
        raw[:, math.floor(spec.n * spec.change.theta):] += sim._delta_coeffs
    if not np.array_equal(raw, sim.generate(streams).coeffs):
        sys.exit("the stages do not give generate's batch")
    raw = FunctionalSample(raw, sim.basis)
    fourier = fourier_basis(cfg.fourier_size)
    work = change_basis(raw, fourier, 201)
    _, eigvals, eigvecs = lrcov_estimate(work, cfg.lag_kernel, cfg.h)
    return {
        "draws": (None, draw),
        "running sums and bridge": (lambda: np.copyto(draws, drawn), bridge),
        "projection": (None, project),
        "AR loop": (lambda: np.copyto(coeffs, shocks), ar_loop),
        "basis change": (None, lambda: change_basis(raw, fourier, 201)),
        "centering": (None,
                      lambda: FunctionalSample(work.coeffs, fourier).centered),
        "lrcov": (None, lambda: lrcov_estimate(work, cfg.lag_kernel, cfg.h)),
        "scores and statistic": (None, lambda: statistic(
            scores(work, eigvecs, cfg.d), eigvals[..., :cfg.d])),
        "critical value": (None, lambda: critical_value(cfg, spec.n)),
        "chunk": (None, lambda: harness._run_chunk(streams, sim, cfg, crit)),
    }


def child(calls: int) -> None:
    """Print, as JSON, each cell's stage -> CPU seconds of `calls` calls,
    after one untimed call of each stage."""
    out = {}
    for label, settings, coords in CELLS:
        times = out[label] = {}
        for name, (setup, call) in stages(settings, coords).items():
            times[name] = []
            for k in range(calls + 1):
                if setup is not None:
                    setup()
                start = time.process_time()
                call()
                if k:
                    times[name].append(time.process_time() - start)
    print(json.dumps(out))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5,
                        help="processes per checkout (default 5)")
    parser.add_argument("--calls", type=int, default=9,
                        help="timed calls per stage and process (default 9)")
    parser.add_argument("--src", action="append", default=None,
                        help="src/ directory to import funcusum from "
                             "(default: this checkout's); repeatable")
    args = parser.parse_args(argv)
    srcs = args.src or [str(SRC)]
    times = {src: {} for src in srcs}
    for run in range(args.rounds):
        # Alternate which tree goes first, so drift on a shared machine
        # does not favour one of them.
        for src in (srcs if run % 2 == 0 else srcs[::-1]):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
            proc = subprocess.run(
                [sys.executable, "-c", RUN_CHILD, str(SCRIPTS),
                 str(args.calls)], env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            for label, cell in json.loads(proc.stdout).items():
                for name, seconds in cell.items():
                    times[src].setdefault((label, name), []).extend(seconds)
    print(f"{args.rounds} rounds x {args.calls} calls each, nproc "
          f"{os.cpu_count()}, OpenBLAS pinned, CPU ms q1/median/q3")
    print("cell  stage  " + "  ".join(srcs))
    for key in times[srcs[0]]:
        print(f"{key[0]}  {key[1]}  " + "  ".join(
            "/".join(f"{1e3 * v:.2f}" for v in quartiles(times[src][key]))
            for src in srcs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
