"""Run one benchmark workload and print its result as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ingest-embedded|query-wire|mixed-cluster \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` alternates untraced and traced blocks and reports the
per-layer metrics (see ``perfbench/README.md``).  The last line of standard
output is ``{"correct": ..., "attempted": ..., "failed": ..., "metrics": ...}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workloads.pin_to_one_cpu()
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
