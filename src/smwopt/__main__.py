"""``python -m smwopt``: the same as the ``smwopt`` command."""
from .cli import main

raise SystemExit(main())
