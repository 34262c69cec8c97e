"""Entry point for ``python -m rdyck``; the same as the ``rdyck`` command."""

import rdyck.cli

if __name__ == "__main__":
    rdyck.cli.main()
