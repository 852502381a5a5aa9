"""``python -m kiqa``, ``python -m kiqa.cli`` and the ``kiqa`` console command.

They run :func:`kiqa.cli.main` after importing it here, so that a Ctrl-C
while numpy and the kiqa modules are still importing ends as one during a
stage does: one ``error: interrupted`` line and exit code 130.  Importing
:mod:`kiqa.cli` as a library still raises ``KeyboardInterrupt``.

Before numpy loads, they pin BLAS to one thread where the user has not set
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS``, so
that the artifacts' bits do not depend on the machine's core count.
"""

import os
import sys


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    try:
        from kiqa.cli import main as cli_main
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
