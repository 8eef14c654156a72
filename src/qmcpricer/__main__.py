"""``python -m qmcpricer``: the same command line as the ``qmcpricer`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
