"""``python -m psprsim``: the same command line as the ``psprsim`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
