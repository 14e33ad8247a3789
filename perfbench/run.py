"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload build_ingest --seed 1 --seconds 3 --trace 0

Human-readable lines (load phases, every metric with its unit and raw
reading, failed operations over attempted ones) come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones (and writes the spans under
``.perfbench/traces/``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, BenchmarkRun

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    # A terminated run still stops its server: SIGTERM unwinds like Ctrl-C.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = BenchmarkRun(workload, args.seed, args.seconds, bool(args.trace), ROOT)
    result = run.run()
    for line in run.log:
        print(line)
    for name, metric in result["metrics"].items():
        measured = run.measured.get(name)
        print(f"{name} = {metric['value']:.6g} {metric['unit']}"
              + (f" (measured {measured:.6g})" if measured is not None else ""))
    print(f"ops_failed_frac = {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} failed of {run.attempted} attempted operations)")
    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
