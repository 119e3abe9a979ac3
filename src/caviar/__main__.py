"""`python -m caviar`: the `caviar` command, from a checkout without installing."""
import sys

from .cli import main

sys.exit(main())
