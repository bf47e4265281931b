"""Host-time benchmark of the Purity reproduction: one workload per call.

Run from the repository root::

    python3 perfbench/run.py --workload oltp --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs the same tape twice, untraced then traced, and
reports the per-layer metrics. Either way the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable table and
the environment stamp. The exit code is 0 only when every read matched
the reference model. See ``perfbench/README.md``.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("oltp", "vdi", "tenants")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget: passes repeat while they fit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: no program source under %s" % SRC, file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: no BENCHMARK.json in %s" % ROOT, file=sys.stderr)
        return 2
    # The CI matrices set these; the benchmark always measures the
    # default serial, unsanitized program.
    for variable in ("REPRO_WORKERS", "REPRO_SANITIZE"):
        os.environ.pop(variable, None)
    sys.path[:0] = [str(ROOT), str(SRC)]
    from perfbench import runner

    return runner.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
