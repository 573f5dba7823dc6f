"""Benchmark entry point for hiernet.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload regular-g13 [--seed 1] [--seconds 10] [--trace 0|1]

Runs one workload against the package under `src/`, checks every output,
prints one line per metric and, as the last line of stdout, one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics from a traced run.  Exit status is 0 only when every operation
and check passed; it is 2, with nothing on stdout, when the checkout
holds no `src/hiernet` to measure.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 1


def bootstrap() -> None:
    """Make `import hiernet` load the checkout's own sources, or raise RuntimeError."""
    if not (SRC / "hiernet" / "__init__.py").is_file():
        raise RuntimeError(f"no hiernet sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hiernet

    if SRC.resolve() not in Path(hiernet.__file__).resolve().parents:
        raise RuntimeError(f"hiernet was imported from {hiernet.__file__}, not from {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        bootstrap()
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; valid: "
              + ", ".join(harness.WORKLOADS), file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    workload = harness.WORKLOADS[args.workload]
    pinned = {}
    if args.seed == DEFAULT_SEED:
        pinned = json.loads(DIGESTS.read_text())[workload.name]
    result = harness.run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                  pinned, WORK)
    for line in result.lines:
        print(line)
    print(json.dumps(result.summary()))
    return result.exit_code()


if __name__ == "__main__":
    sys.exit(main())
