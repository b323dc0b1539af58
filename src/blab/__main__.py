"""`python -m blab`: the blab command line of blab.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
