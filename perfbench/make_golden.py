"""Write golden_cli.json: the SHA-256 of every cli op's output at the default seed.

usage, from the root of an ffdist checkout:  python3 perfbench/make_golden.py

The digests pin the CLI output byte for byte, so regenerate them only from a
commit whose output is known to be right.  Each distinct command line of the
first CYCLES cycles is run once, in a fresh process as the cli workload
runs it, and must pass the workload's verdict checks.
"""

import hashlib
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CYCLES = 64  # well beyond the cycles one run reaches

if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    import run
    import workloads

    cli = workloads.Cli(workloads.DEFAULT_SEED, golden={})
    cli.setup()
    digests = {}
    try:
        for i in range(CYCLES * cli.cycle):
            argv = cli.make_input(i)
            key = " ".join(argv)
            if key in digests:
                continue
            result = cli.run_op(i, argv)
            problems = cli.check(argv, result)
            if problems:
                sys.exit(f"{key}: {problems}")
            digests[key] = hashlib.sha256(result.output).hexdigest()
    finally:
        cli.close()
    golden = {"seed": workloads.DEFAULT_SEED, "cycles": CYCLES,
              "git_commit": run.git_commit(), "source_sha256": run.source_sha256(),
              "digests": digests}
    workloads.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    print(f"wrote {len(digests)} digests to {workloads.GOLDEN}")
