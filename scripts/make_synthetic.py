#!/usr/bin/env python3
"""Generate synthetic multivariate time-series datasets in the native MTS
text format, for feeding the benchmark CLI.

Example:
    python scripts/make_synthetic.py --out-dir data --family all \
        --num-series 200 --length 50 --dims 3 --seed 42
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mvdtw import write_native
from mvdtw.synth import (
    clustered_dataset,
    iid_noise_dataset,
    random_walk_dataset,
    smooth_walk_dataset,
)

FAMILIES = {
    "walk": random_walk_dataset,
    "smooth": smooth_walk_dataset,
    "clustered": clustered_dataset,
    "iid": iid_noise_dataset,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="data")
    ap.add_argument("--family", nargs="+", default=["all"],
                    choices=[*FAMILIES, "all"])
    ap.add_argument("--num-series", type=int, default=200)
    ap.add_argument("--length", type=int, default=50)
    ap.add_argument("--dims", type=int, default=3)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args(argv)

    names = list(FAMILIES) if "all" in args.family else args.family
    os.makedirs(args.out_dir, exist_ok=True)
    for name in names:
        ds = FAMILIES[name](args.num_series, args.length, args.dims,
                            seed=args.seed, name=name)
        path = os.path.join(args.out_dir, f"{name}.mts")
        write_native(ds, path)
        print(f"wrote {path}  ({ds.num_series} series, n={ds.length}, D={ds.dims})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
