"""Rewrite references/<workload>.json from the package as it is now.

    python3 bench/make_references.py [workload ...]

A reference is the output of one default-seed pass at `REFERENCE` sizes.
Regenerate one only for a change that is meant to alter what the program
computes, and say so in the change: every benchmark run compares against
these files, and a mismatch counts as a failed operation.
"""

from __future__ import annotations

import sys
import tempfile

import run


def main(names: list[str]) -> int:
    run._import_package()
    import workloads as W

    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=run.ROOT) as workdir:
        for name in names or sorted(W.WORKLOADS):
            W.write_reference(W.WORKLOADS[name], workdir)
            print(f"wrote {W.reference_path(W.WORKLOADS[name])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
