"""`python -m thetaconf`: the command line of `thetaconf.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
