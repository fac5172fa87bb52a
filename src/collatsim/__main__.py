"""``python -m collatsim``: the same entry point as the ``collatsim`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
