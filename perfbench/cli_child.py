"""Run one ffdist CLI command in a fresh process: one op of the cli workload.

usage: cli_child.py TRACE OP ARGV...

Calls ffdist.harness.main(ARGV) and exits with its code.  `python -m
ffdist.harness` is not used because it warns about a double import.  TRACE
is '-' for an untraced op; otherwise this process records its spans under op
id OP and writes them to the file TRACE, which the parent collects.
"""

import sys

import ffdist.harness


def main() -> int:
    trace_path, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    if trace_path == "-":
        return ffdist.harness.main(argv)
    import spans

    tracer = spans.Tracer()
    tracer.op = op
    tracer.install()
    try:
        return ffdist.harness.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
