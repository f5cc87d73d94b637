"""``python -m korbit``: the korbit command line."""
import sys

from .cli import main

sys.exit(main())
