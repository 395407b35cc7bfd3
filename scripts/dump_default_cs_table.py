#!/usr/bin/env python3
"""Write the shipped calibrated contention-sensitivity table to a file in
the loadable CSV format, for inspection or as a starting point for a
custom calibration.

Usage: python scripts/dump_default_cs_table.py [--out cs_table.csv]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from consched.contention import default_cs_table, write_cs_table


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="cs_table.csv")
    args = parser.parse_args()
    table = default_cs_table()
    write_cs_table(table, args.out)
    print(f"wrote {len(table)} entries to {args.out}")


if __name__ == "__main__":
    main()
