"""Compare the exact results of benchmark runs, and keep the reference.

    python3 perfbench/reference.py           # compare perfbench/out/*.json
    python3 perfbench/reference.py --write   # and add new clouds to reference.json

Every checked op records its cloud's diagram digest and exact layer counts
(simplices per dimension, nnz, pairs, Delaunay top simplices and tie-break
flag, bottleneck k). Two ops on the same cloud (workload, seed and index)
must agree exactly, in any two runs, traced or not, and so must an op and
the committed ``reference.json``. A mismatch is a determinism failure, not
noise. Exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"


def differences(want: dict, got: dict) -> list:
    """How two ``{"digest", "counts"}`` results for one cloud disagree,
    over the counts both have."""
    out = []
    if want["digest"] != got["digest"]:
        out.append(f"diagram digest {got['digest']} != {want['digest']}")
    for key in sorted(set(want["counts"]) & set(got["counts"])):
        if want["counts"][key] != got["counts"][key]:
            out.append(f"count {key} = {got['counts'][key]} != "
                       f"{want['counts'][key]}")
    return out


def load_reference() -> dict:
    if not REFERENCE.is_file():
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh)


def collect(paths) -> tuple:
    """Results per (workload, cloud) from run records, and their mismatches."""
    seen = {}
    mismatches = []
    for path in paths:
        with open(path) as fh:
            record = json.load(fh)
        for op in record["ops"]:
            if not op["ok"]:
                continue
            key = (record["workload"], op["cloud"])
            got = {"digest": op["digest"], "counts": op["counts"]}
            have = seen.get(key)
            if have is None:
                seen[key] = got
                continue
            diff = differences(have, got)
            mismatches += [f"{key[0]} cloud {key[1]}: {path.name} op "
                           f"{op['op']}: {d}" for d in diff]
            if not diff:
                have["counts"] = {**got["counts"], **have["counts"]}
    return seen, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="add clouds missing from reference.json")
    args = parser.parse_args(argv)
    paths = sorted(OUT.glob("*.json"))
    seen, mismatches = collect(paths)
    reference = load_reference()
    added = 0
    for (workload, cloud), got in sorted(seen.items()):
        table = reference.setdefault(workload, {})
        want = table.get(cloud)
        if want is None:
            table[cloud] = got
            added += 1
            continue
        diff = differences(want, got)
        mismatches += [f"{workload} cloud {cloud}: reference: {d}"
                       for d in diff]
        if not diff:
            want["counts"] = {**got["counts"], **want["counts"]}
    for line in mismatches:
        print(f"MISMATCH {line}")
    print(f"{len(paths)} run records, {len(seen)} clouds, {added} not in "
          f"the reference, {len(mismatches)} mismatches")
    if args.write and not mismatches:
        with open(REFERENCE, "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
