"""``python -m fkplump``: the command-line runner, as the ``fkplump`` script."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
