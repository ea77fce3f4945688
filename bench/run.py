"""Benchmark of troplag: what certifying a curve costs, end to end and per
layer, on three workloads (see README.md in this directory).

    python3 bench/run.py --workload {family,soup,cli} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout.  It prints one line per metric and, as
the last line, a JSON object {correct, attempted, failed, metrics}: the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("family", "soup", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "troplag" / "__init__.py").is_file():
        print(f"error: no troplag sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    result, lines = workloads.run(args.workload, ROOT, args.seed,
                                  args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
