#!/usr/bin/env python3
"""Regenerate ``perfbench/reference/<workload>.csv`` for the default seed.

The reference tables pin the numbers of the commit that introduced the
benchmark; regenerate them only when a change is meant to alter the output,
and say so in the change.  Run from the root of a checkout::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import sys
from pathlib import Path

from run import import_entrunc
from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS


def main() -> int:
    import_entrunc()
    from entrunc.cli import main as cli_main

    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        table = workload.reference
        sweep = workload.argvs(DEFAULT_SEED, table, Path("unused.svg"))[0]
        if cli_main(sweep) != 0:
            return 1
        print(f"wrote {table}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
