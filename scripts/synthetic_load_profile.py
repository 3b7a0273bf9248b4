"""End-to-end demo on a synthetic daily load-profile series.

Builds 161 daily curves (one week short of half a year) as a damped
functional AR(1) and injects a constant level shift of L2 norm 0.3
after day 115, then runs the full command-line pipeline: CSV in,
smoothing, projection on the long-run principal components, weighted
CUSUM test, JSON report out.  With the defaults the shift is found at
the 1% level and the locator lands within a day or two of the truth.

Writes profile.csv and report.json under --out-dir and prints the
test summary to stdout.
"""

import argparse
import json
import pathlib

import numpy as np

from funcusum.basis import FunctionalSample, Grid, fit_sample, write_curves_csv
from funcusum.cli import main as cli_main
from funcusum.simulate import Far1Simulator, SimSpec, calibrate_kernel


def build_profile(n, break_index, shift_norm, noise_scale, psi, seed):
    grid = Grid(np.linspace(0.0, 1.0, 97))
    spec = SimSpec(n=n, kernel=calibrate_kernel("wiener", psi), seed=(seed, 7),
                   grid_points=97, basis_size=12, basis_order=4)
    noise = Far1Simulator(spec).generate()
    shift = fit_sample(np.full(97, shift_norm), grid, noise.basis).coeffs[0]
    coeffs = noise_scale * noise.coeffs
    coeffs[break_index:] += shift
    return grid, FunctionalSample(coeffs, noise.basis).evaluate(grid)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=161)
    ap.add_argument("--break-index", type=int, default=115)
    ap.add_argument("--shift-norm", type=float, default=0.3)
    ap.add_argument("--noise-scale", type=float, default=0.15)
    ap.add_argument("--psi", type=float, default=0.4)
    ap.add_argument("--seed", type=int, default=99)
    ap.add_argument("--alpha", type=float, default=0.01)
    ap.add_argument("--out-dir", default="results/load_profile")
    args = ap.parse_args(argv)

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid, values = build_profile(args.n, args.break_index, args.shift_norm,
                                 args.noise_scale, args.psi, args.seed)
    csv_path = out / "profile.csv"
    report_path = out / "report.json"
    write_curves_csv(str(csv_path), values, grid)

    rc = cli_main(["test", str(csv_path), "--d", "1", "--h", "2",
                   "--alpha", str(args.alpha), "--out", str(report_path)])
    if rc != 0:
        return rc
    result = json.loads(report_path.read_text())["result"]
    hit = abs(result["k_hat_standardized"] - args.break_index)
    print(f"injected break at {args.break_index}, located at "
          f"{result['k_hat_standardized']} (off by {hit}); "
          f"reject at alpha={args.alpha}: {result['reject']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
