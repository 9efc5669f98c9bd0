"""Run the command-line front end: ``python -m filcol <command> ...``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
