"""``python -m wfdsim``: the ``wfdsim`` console script."""

from .cli import main

raise SystemExit(main())
