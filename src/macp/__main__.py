"""``python -m macp``: the ``macp`` command line without the installed script."""

import sys

from .cli import main

sys.exit(main())
