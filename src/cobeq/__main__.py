"""``python -m cobeq`` runs the `cobeq` command line."""

import sys

from .cli import main

sys.exit(main())
