#!/usr/bin/env python3
"""Reproduce the semicircle offset-sweep figure data.

Writes one CSV per mesh size plus an SVG of the delta = 0.1 sweep into
results/ (created if missing), and asserts that every oracle value stays
inside its tier bounds.  Each CSV is written by the ``roundmoments sweep``
command, which exits 1 on a dominance violation; the SVG is drawn from the
rows of its CSV, so each sweep runs once.

Usage: python scripts/reproduce_sweep.py [--offsets 64] [--out-dir results]
"""

import argparse
import csv
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from roundmoments.cli import main as cli_main
from roundmoments.cli import sweep_svg
from roundmoments.verify import SweepRow


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--offsets", type=int, default=64)
    ap.add_argument("--out-dir", default="results")
    ap.add_argument("--r", type=float, default=1.0)
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dist = f"semicircle:r={args.r},mu=0"
    for delta in (0.05, 0.1, 0.2):
        path = out / f"sweep_semicircle_delta{delta}.csv"
        sweep = ["sweep", "--dist", dist, "--delta", str(delta), "--offsets", str(args.offsets)]
        if cli_main(["--out", str(path), *sweep]) != 0:
            return 1
        with path.open() as fh:
            # 17 significant digits round-trip every double; empty cells are None.
            rows = [SweepRow(*(float(v) if v else None for v in line)) for line in list(csv.reader(fh))[1:]]
        worst_e = max(abs(r.delta_E) for r in rows)
        worst_v = max(abs(r.delta_V) for r in rows)
        print(f"delta={delta}: wrote {path} (worst |dE| {worst_e:.3e}, worst |dV| {worst_v:.3e})")
        if delta == 0.1:
            (out / "sweep_semicircle_delta0.1.svg").write_text(sweep_svg(rows))
    print("all sweeps dominated by their tier bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
