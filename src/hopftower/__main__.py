"""``python -m hopftower``: the command-line front end (cli.main)."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
