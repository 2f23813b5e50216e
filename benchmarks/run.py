#!/usr/bin/env python3
"""qdsl benchmark entry point.

Run from the repository root:

    python3 benchmarks/run.py --workload qft_shots --seed 1 --seconds 10 --trace 0

Workloads: qft_shots, rus_coin, compile_corpus. With `--trace 0` the run
reports the end-to-end metrics, with `--trace 1` the per-layer metrics of a
traced run. Every metric is printed on its own line as `name value unit`;
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`, which holds the metrics
BENCHMARK.json lists for the mode. See benchmarks/README.md.

The benchmark measures the qdsl sources of the checkout it runs in
(`src/qdsl`, put first on `sys.path` and on the children's `PYTHONPATH`),
so each commit measures its own code. Without those sources it exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CORPUS = ROOT / "tests" / "corpus"
SPEC = ROOT / "BENCHMARK.json"


def use_checkout_sources() -> None:
    """Make `import qdsl` load this checkout's sources, or exit with code 2."""
    needed = (SRC / "qdsl" / "__init__.py", CORPUS, SPEC)
    missing = [p for p in needed if not p.exists()]
    if missing:
        names = ", ".join(str(p.relative_to(ROOT)) for p in missing)
        print(f"error: the benchmark needs {names} in {ROOT}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    use_checkout_sources()
    import harness  # imports qdsl, so only after the sources are on sys.path

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(harness.WORKLOADS)}")
    spec = json.loads(SPEC.read_text())
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         reported)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
