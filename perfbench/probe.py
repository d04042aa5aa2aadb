"""One set-up sample: a fresh interpreter imports pmtcount and makes the
workload's first call on a tiny input, then prints both times as JSON.

    python3 perfbench/probe.py --workload fig6_fit --out-dir DIR
"""
from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

start = time.perf_counter()
import pkg  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out-dir", required=True, type=Path)
    args = parser.parse_args()
    pkg.load_package()
    imported = time.perf_counter()
    import workloads

    workloads.make(args.workload, 0, args.out_dir).first_call()
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start,
                      "first_call_s": done - imported}))


if __name__ == "__main__":
    main()
