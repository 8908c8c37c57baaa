"""Run the Schur-to-determinant reduction on a sweep of qualifying partitions
and print the pass-by-pass ledger for each instance.

Usage: python scripts/reduction_demo.py [--full]
"""

import argparse
import time

from schurkit.partitions import Partition
from schurkit.transforms import schur_to_det_reduce

SMALL = [((3, 2), 5), ((4, 2), 6)]
FULL = SMALL + [((5, 3), 7), ((6, 3), 8)]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--full", action="store_true", help="include the larger instances")
    args = parser.parse_args()
    instances = FULL if args.full else SMALL
    for parts, n in instances:
        lam = Partition(parts)
        start = time.perf_counter()
        # raises VerificationFailed unless the output expands to det_l
        _, report = schur_to_det_reduce(lam, n)
        built = time.perf_counter() - start
        print(f"lambda={lam} n={n}  (built in {built:.1f}s, expansion verified: True)")
        print(f"  input : size {report.input_size:>8}  depth {report.input_depth}")
        for record in report.passes:
            print(f"  {record.name:<34} size {record.size:>8}  depth {record.depth}")
        print(
            f"  output: size {report.output_size:>8}  depth {report.output_depth}"
            f"  (depth increase {report.depth_increase()})"
        )
        print()


if __name__ == "__main__":
    main()
