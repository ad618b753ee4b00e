#!/usr/bin/env python3
"""Rewrite digests.json: exact-output digests of pass 0 at the default seed.

    python3 perfbench/record_digests.py

Run it only when the benchmark's inputs or operation lists change, never
to make a changed program output pass.  It refuses to record a pass whose
basis-independent facts fail.
"""

import json
import os
import shutil
import sys

import run


def main():
    run.import_package()
    sys.path.insert(0, run.HERE)
    import workloads

    digests = {}
    for name in run.WORKLOAD_NAMES:
        workdir = os.path.join(run.OUT, "record-%d" % os.getpid())
        os.makedirs(workdir)
        try:
            W = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, workdir)
            W.setup()
            digests[name] = {}
            for op in W.ops(0):
                output = op.call()
                problem = op.check(output)
                if problem is not None:
                    print("refusing to record: %s" % problem, file=sys.stderr)
                    return 1
                digests[name][op.name] = run.digest(op, output)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
