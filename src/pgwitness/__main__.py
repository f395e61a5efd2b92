"""``python -m pgwitness``: the ``pgwitness`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
