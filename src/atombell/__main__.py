"""``python -m atombell``: the ``atombell`` command without the installed script."""

import sys

from .cli import main

sys.exit(main())
