"""Warn about benchmark CSVs that differ between two source trees.

Writes the inputs of the verify-L4, identities-L3 and disorder-L3-mt
workloads at seed 5 with HEAD_TREE's perfbench/workloads.py, runs each
tree's perfbench/child.py once on its own copy of them, and prints a GitHub
Actions `::warning::` line for each CSV that differs.  A differing CSV does
not fail the run, since a change may move documented digits; a child that
exits nonzero does.

    python3 .github/scripts/compare_csvs.py BASE_TREE HEAD_TREE
"""

import filecmp
import os
import subprocess
import sys
import tempfile

WORKLOADS = ("verify-L4", "identities-L3", "disorder-L3-mt")
SEED = 5


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = (os.path.abspath(tree) for tree in argv[1:])
    sys.dont_write_bytecode = True  # perfbench/ is read, never written
    sys.path.insert(0, os.path.join(head, "perfbench"))
    from workloads import workloads, write_inputs

    with tempfile.TemporaryDirectory() as work:
        for name in WORKLOADS:
            workload = workloads()[name]
            csvs = []
            for side, tree in (("base", base), ("head", head)):
                workdir = os.path.join(work, name, side)
                config = write_inputs(workload, SEED, workdir)
                out = os.path.join(workdir, "report")
                cmd = [
                    sys.executable, os.path.join(tree, "perfbench", "child.py"), "--kind", workload.kind,
                    "--config", config, "--out", out, "--threads", str(workload.threads),
                ]
                env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
                subprocess.run(cmd, cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)
                csvs.append(out + ".csv")
            if filecmp.cmp(*csvs, shallow=False):
                print(f"{name} seed {SEED}: CSV identical to the base tree's")
            else:
                print(f"::warning::{name} seed {SEED}: CSV differs from the base tree's")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
