"""Command-line entry point: `python -m ffdist <command> [flags]` runs
ffdist.harness.main, the same function as the `ffdist` script."""

from .harness import main

raise SystemExit(main())
