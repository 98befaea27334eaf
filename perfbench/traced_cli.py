"""The diraclab CLI entry point with the span tracer installed.

    PERFBENCH_SPANS=out.json PERFBENCH_OP=3 python3 perfbench/traced_cli.py verify --seed 7

Behaves like `diraclab <args>` (same exit code and output) and writes the
process's spans, tagged with operation id PERFBENCH_OP, to PERFBENCH_SPANS
when the command returns.
"""

from __future__ import annotations

import os
import sys

from spantrace import Tracer


def main() -> int:
    tracer = Tracer().install()
    tracer.begin_op(int(os.environ["PERFBENCH_OP"]))
    from diraclab import cli

    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.write(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
