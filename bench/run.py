"""Benchmark for lmbr: stripe traffic, certification and set-up.

Run from the root of a checkout:

    python3 bench/run.py --workload fano-stripes --seed 1 --seconds 60 --trace 0

Workloads are defined in ``harness.py``; ``BENCHMARK.json`` lists the gated
ones.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it spends half its seconds untraced and half with every
module entry point wrapped, and reports the per-layer metrics plus the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
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
    if not (ROOT / "src" / "lmbr" / "__init__.py").is_file():
        print(f"error: no lmbr sources under {ROOT / 'src'}; run the "
              "benchmark from a full checkout", file=sys.stderr)
        return 2

    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    for name, (value, unit) in result.reported.items():
        print(f"  {name:<36} {value:>14.6g} {unit}  (reported, no bound)")
    m = {k: v for k, (v, _) in result.metrics.items()}
    if m.get("trace.untraced_goodput_sym_per_s"):
        goodput = (m["trace.goodput_sym_per_s"]
                   / m["trace.untraced_goodput_sym_per_s"] - 1)
        dmin = m["trace.dmin_s"] / m["trace.untraced_dmin_s"] - 1
        print(f"  tracing overhead (traced vs untraced half): goodput "
              f"{goodput:+.1%}, dmin_s {dmin:+.1%}")
    ratio = result.failed / result.attempted
    print(f"  {'op_fail_ratio':<36} {ratio:>14.6g} ratio  (reported, no "
          f"bound; {result.failed} of {result.attempted} ops failed)")
    for error in result.errors:
        print(f"  failure: {error}")
    print("properties " + json.dumps(result.properties))
    print("meta " + json.dumps(result.meta))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
