"""``python -m mvhash``: the same command line as the ``mvhash`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
