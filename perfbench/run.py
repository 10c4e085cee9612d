"""Benchmark of the SEGOS engine: one workload, one seed, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload aids-range --seed 1 --seconds 20 --trace 0

Workloads: ``aids-range``, ``clone-exact``, ``aids-ingest`` (see
``perfbench/README.md``).  The last line of standard output is the result
object; the lines before it are a human-readable account of the run.  The
program is imported from ``src/`` of the same checkout; ``REPRO_*``
environment variables are cleared first so they cannot change what is
measured, and ``PYTHONHASHSEED`` is pinned to 0 (the script re-executes
itself once to apply it).
"""

from __future__ import annotations

import argparse
import json
import os
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
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing orders the engine's sets, and with them the SED
        # memo's evictions; pinning it makes the same seed repeat every work
        # counter exactly.  exec replaces this process; it starts no other.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    cleared = sorted(key for key in os.environ if key.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    if cleared:
        print("cleared environment: " + " ".join(cleared))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

    from segosbench.runner import run_benchmark
    from segosbench.inputs import WORKLOADS
    from segosbench.oracle import SetupError

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), str(ROOT))
    except SetupError as exc:
        print(f"perfbench: set-up error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
