"""``python -m specdec``: the ``specdec`` command line, run from a checkout
or an install alike. Exits with the code :func:`specdec.cli.main` returns."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
