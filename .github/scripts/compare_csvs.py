"""Warn about benchmark reports and demo output that differ between two source trees.

Writes the inputs of the verify-L4, identities-L3 and disorder-L3-mt
workloads at seeds 5, 6 and 7 with HEAD_TREE's perfbench/workloads.py,
runs each tree's perfbench/child.py once on its own copy of each, and
prints a GitHub Actions `::warning::` line for each CSV that differs and
for each JSON report that differs.  Under a differing CSV it prints, for
each column that moved, the largest absolute and relative difference with
its row when the column is numeric, and how many rows changed otherwise.
The JSON comparison leaves out the timings (keys ending in `_ms`) and the
`model` and `out` paths, which differ between the two runs by
construction; under a differing report it counts the differing leaves,
gives the largest absolute and relative difference among the numeric ones
with their key paths, gives the largest relative move of the numbers
inside the string leaves that differ only in those numbers, such as a
check's detail text, and lists every differing leaf.  Then it
runs each of HEAD_TREE's demos/*.py in both trees and warns for each demo
whose stdout differs.  Last it prints the line counts, as `wc -l` gives
them, of src/lrchain/*.py and of tests/*.py in both trees.  A differing
report or demo output does not fail the run, since a change may move
documented digits; a child or demo that exits nonzero does.

    python3 .github/scripts/compare_csvs.py BASE_TREE HEAD_TREE
"""

import csv
import filecmp
import glob
import itertools
import json
import math
import os
import re
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


def _finite(text: str):
    """`text` as a finite float, or None."""
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def column_differences(base_csv: str, head_csv: str) -> list:
    """One line per column that differs between two CSV files, rows counted from 1 after the header.

    A column whose differing entries are all finite numbers gets its largest
    absolute and its largest relative difference (against the base value),
    each with its row; any other column gets its count of differing rows and
    the first of them, so a flipped flag is named too.
    """
    tables = []
    for path in (base_csv, head_csv):
        with open(path, newline="") as fh:
            tables.append(list(csv.reader(fh)))
    base, head = tables
    if not base or not head or base[0] != head[0] or len(base) != len(head):
        return [f"header or row count differs: {len(base)} -> {len(head)} lines"]
    lines = []
    for col, name in enumerate(base[0]):
        moved = [(row, b[col], h[col]) for row, (b, h) in enumerate(zip(base[1:], head[1:]), 1) if b[col] != h[col]]
        if not moved:
            continue
        numbers = [(row, _finite(b), _finite(h)) for row, b, h in moved]
        if any(b is None or h is None for _, b, h in numbers):
            row, b, h = moved[0]
            lines.append(f"{name}: {len(moved)} rows differ, first row {row}: {b} -> {h}")
            continue
        absolute = max((abs(h - b), row) for row, b, h in numbers)
        relative = max((abs(h - b) / abs(b) if b else math.inf, row) for row, b, h in numbers)
        lines.append(
            f"{name}: {len(moved)} rows differ; largest absolute difference {absolute[0]:.3e} at row {absolute[1]}, "
            f"largest relative difference {relative[0]:.3e} at row {relative[1]}"
        )
    return lines


MISSING = object()  # a key or list entry that only the other document has


def leaf_differences(base, head, path=""):
    """(key path, base value, head value) for each leaf where `base` and `head` differ.

    A key or list entry that only one side has is one leaf, `MISSING` on the
    other side, and so is a place where the two sides' types differ.
    """
    if isinstance(base, dict) and isinstance(head, dict):
        keys = list(base) + [k for k in head if k not in base]
        return [d for k in keys for d in leaf_differences(base.get(k, MISSING), head.get(k, MISSING), f"{path}.{k}")]
    if isinstance(base, list) and isinstance(head, list):
        pairs = enumerate(itertools.zip_longest(base, head, fillvalue=MISSING))
        return [d for i, (b, h) in pairs for d in leaf_differences(b, h, f"{path}[{i}]")]
    return [] if base == head else [(path.lstrip(".") or "(top level)", base, head)]


def _number(value):
    """`value` as a finite float when it is a JSON number, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value) if math.isfinite(value) else None


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def embedded_moves(base, head):
    """The relative moves, against the base value, of the numbers that differ inside two strings.

    None unless both are strings that agree once every number in them is
    masked, so a changed word is never read as a moved number.
    """
    if not (isinstance(base, str) and isinstance(head, str)) or NUMBER.sub("#", base) != NUMBER.sub("#", head):
        return None
    pairs = [(float(b), float(h)) for b, h in zip(NUMBER.findall(base), NUMBER.findall(head))]
    return [abs(h - b) / abs(b) if b else math.inf for b, h in pairs if b != h]


def json_differences(base, head) -> list:
    """One line per leaf that differs between two JSON documents, after a summary line.

    The summary counts the differing leaves and, among those that are finite
    numbers on both sides, gives the largest absolute and the largest
    relative difference (against the base value), each with its key path.
    It then counts the string leaves whose only change is in the numbers
    inside them, and gives the largest relative move of such a number, by
    `embedded_moves`, with its key path.
    """
    moved = leaf_differences(base, head)
    if not moved:
        return []
    shown = [(path, "(missing)" if b is MISSING else b, "(missing)" if h is MISSING else h) for path, b, h in moved]
    numbers = [(path, _number(b), _number(h)) for path, b, h in moved]
    numbers = [(path, b, h) for path, b, h in numbers if b is not None and h is not None]
    summary = f"{len(moved)} leaves differ, {len(numbers)} of them numeric"
    if numbers:
        absolute = max((abs(h - b), path) for path, b, h in numbers)
        relative = max((abs(h - b) / abs(b) if b else math.inf, path) for path, b, h in numbers)
        summary += (
            f"; largest absolute difference {absolute[0]:.3e} at {absolute[1]}, "
            f"largest relative difference {relative[0]:.3e} at {relative[1]}"
        )
    texts = [(path, embedded_moves(b, h)) for path, b, h in moved]
    texts = [(max(moves, default=0.0), path) for path, moves in texts if moves is not None]
    if texts:
        summary += (
            f"; {len(texts)} string leaves differ only in embedded numbers, "
            f"largest relative move {max(texts)[0]:.3e} at {max(texts)[1]}"
        )
    return [summary] + [f"{path}: {b} -> {h}" for path, b, h in shown]


def line_count(tree: str, pattern: str) -> int:
    """The total newline count of the files under `tree` that match `pattern`, the last line of `wc -l` on them."""
    total = 0
    for path in glob.glob(os.path.join(tree, pattern)):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


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
                for line in column_differences(*(out + ".csv" for out in outs)):
                    print(f"    {line}")
            docs = []
            for out in outs:
                with open(out + ".json") as fh:
                    docs.append(comparable(json.load(fh)))
            lines = json_differences(*docs)
            if not lines:
                print(f"{name} seed {seed}: JSON identical to the base tree's apart from timings and paths")
            else:
                print(f"::warning::{name} seed {seed}: JSON differs from the base tree's")
                for line in lines:
                    print(f"    {line}")
    for demo in sorted(f for f in os.listdir(os.path.join(head, "demos")) if f.endswith(".py")):
        if not os.path.exists(os.path.join(base, "demos", demo)):
            print(f"demos/{demo}: not in the base tree")
            continue
        stdouts = []
        for tree in (base, head):
            env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
            cmd = [sys.executable, os.path.join(tree, "demos", demo)]
            stdouts.append(subprocess.run(cmd, cwd=tree, env=env, check=True, capture_output=True, text=True).stdout)
        if stdouts[0] == stdouts[1]:
            print(f"demos/{demo}: stdout identical to the base tree's")
        else:
            print(f"::warning::demos/{demo}: stdout differs from the base tree's")
    for pattern in ("src/lrchain/*.py", "tests/*.py"):
        counts = [line_count(tree, pattern) for tree in (base, head)]
        print(f"{pattern}: {counts[0]} lines in the base tree, {counts[1]} in the head tree ({counts[1] - counts[0]:+d})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
