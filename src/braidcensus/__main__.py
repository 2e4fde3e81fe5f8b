"""``python -m braidcensus``: the command line of ``braidcensus.cli``."""

import sys

from .cli import main

sys.exit(main())
