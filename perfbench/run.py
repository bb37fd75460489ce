"""Prequential benchmark of fct.

Usage (from the repository root):

    python3 perfbench/run.py --workload sea-recurring --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced runs; ``--trace 1``
prints the per-layer metrics of a traced run. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See perfbench/README.md for the workloads and metrics.

Exit codes: 0 all checks passed, 1 a check or a run failed (the result line
is still printed), 2 bad arguments or no fct source tree beside the benchmark.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    if not (SRC / "fct" / "__init__.py").is_file():
        print(f"error: no fct source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent / "reference")]
    import fct
    if Path(fct.__file__).resolve().parent != SRC / "fct":
        print(f"error: imported fct from {fct.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench
    return bench.main(argv)


if __name__ == "__main__":
    sys.exit(main())
