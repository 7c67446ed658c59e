"""`python -m sagan ...` runs the command line, as the `sagan` script does."""

from .cli import main

raise SystemExit(main())
