"""Warn about benchmark reports that differ between two source trees.

Writes the inputs of the verify-L4, identities-L3 and disorder-L3-mt
workloads at seeds 5, 6 and 7 with HEAD_TREE's perfbench/workloads.py,
runs each tree's perfbench/child.py once on its own copy of each, and
prints a GitHub Actions `::warning::` line for each CSV that differs and
for each JSON report that differs.  The JSON comparison leaves out the timings (keys
ending in `_ms`) and the `model` and `out` paths, which differ between the
two runs by construction, and names the first differing key path.  A
differing report does not fail the run, since a change may move documented
digits; a child that exits nonzero does.

    python3 .github/scripts/compare_csvs.py BASE_TREE HEAD_TREE
"""

import filecmp
import itertools
import json
import os
import subprocess
import sys
import tempfile

WORKLOADS = ("verify-L4", "identities-L3", "disorder-L3-mt")
SEEDS = (5, 6, 7)
PATH_KEYS = ("model", "out")


def comparable(node):
    """`node` without timing keys and path strings, at any depth."""
    if isinstance(node, dict):
        return {k: comparable(v) for k, v in node.items() if not k.endswith("_ms") and k not in PATH_KEYS}
    if isinstance(node, list):
        return [comparable(v) for v in node]
    return node


def first_difference(base, head, path=""):
    """The key path of the first place where `base` and `head` differ, or None."""
    if isinstance(base, dict) and isinstance(head, dict):
        for key in list(base) + [k for k in head if k not in base]:
            if key not in base or key not in head:
                return f"{path}.{key}".lstrip(".")
            found = first_difference(base[key], head[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(base, list) and isinstance(head, list):
        for i, (b, h) in enumerate(zip(base, head)):
            found = first_difference(b, h, f"{path}[{i}]")
            if found is not None:
                return found
        return None if len(base) == len(head) else f"{path}[{min(len(base), len(head))}]".lstrip(".")
    return None if base == head else path.lstrip(".") or "(top level)"


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = (os.path.abspath(tree) for tree in argv[1:])
    sys.dont_write_bytecode = True  # perfbench/ is read, never written
    sys.path.insert(0, os.path.join(head, "perfbench"))
    from workloads import workloads, write_inputs

    with tempfile.TemporaryDirectory() as work:
        for name, seed in itertools.product(WORKLOADS, SEEDS):
            workload = workloads()[name]
            outs = []
            for side, tree in (("base", base), ("head", head)):
                workdir = os.path.join(work, name, str(seed), side)
                config = write_inputs(workload, seed, workdir)
                out = os.path.join(workdir, "report")
                cmd = [
                    sys.executable, os.path.join(tree, "perfbench", "child.py"), "--kind", workload.kind,
                    "--config", config, "--out", out, "--threads", str(workload.threads),
                ]
                env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
                subprocess.run(cmd, cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)
                outs.append(out)
            if filecmp.cmp(*(out + ".csv" for out in outs), shallow=False):
                print(f"{name} seed {seed}: CSV identical to the base tree's")
            else:
                print(f"::warning::{name} seed {seed}: CSV differs from the base tree's")
            docs = []
            for out in outs:
                with open(out + ".json") as fh:
                    docs.append(comparable(json.load(fh)))
            where = first_difference(*docs)
            if where is None:
                print(f"{name} seed {seed}: JSON identical to the base tree's apart from timings and paths")
            else:
                print(f"::warning::{name} seed {seed}: JSON differs from the base tree's at {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
