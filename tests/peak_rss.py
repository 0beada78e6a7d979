"""Run the CLI in this process and bound its peak resident set size.

    PYTHONPATH=src python tests/peak_rss.py BOUND_MB ARGS...

runs ``revccs.cli.main(ARGS)``, prints ``peak RSS X MB, bound BOUND_MB MB``
to stderr, and exits with the CLI's code, or with 3 when the peak is over
the bound.  The CI scale steps use it.
"""

import resource
import sys

from revccs.cli import main

if __name__ == "__main__":
    bound, args = sys.argv[1], sys.argv[2:]
    rc = main(args)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak:.1f} MB, bound {bound} MB", file=sys.stderr)
    sys.exit(rc if peak <= float(bound) else 3)
