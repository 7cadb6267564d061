#!/usr/bin/env python3
"""Diff two ``hyperfile-bench/2`` files (``bench/main.exe --json``).

    python3 tools/bench_diff.py OLD.json NEW.json

The simulator's entries run on a virtual clock, so a change that claims
not to alter the simulator must leave every one of them exactly as it
was.  This tool checks that: every experiment entry, and every field
inside it, must be present in both files with an identical value —
except the fields below, which measure this host's wall clock or CPU
and move run to run:

- every ``*.wall_s`` entry, and every ``micro.*`` entry;
- the timings and ``speedup`` of ``e14.indexes``;
- the wall, CPU and ``overhead_frac`` fields of ``e18.obs_overhead``.

Exit 0 when the files agree, 1 listing every differing or missing key
otherwise, 2 on unreadable input.  Standard library only.
"""

import json
import sys

SCHEMA = "hyperfile-bench/2"

# Fields exempt inside particular entries: entry id -> field names.
EXEMPT_FIELDS = {
    "e14.indexes": {
        "engine_ms_per_query",
        "planner_ms_per_query",
        "index_build_ms",
        "speedup",
    },
    "e18.obs_overhead": {
        "untraced_wall_s",
        "traced_wall_s",
        "untraced_cpu_s",
        "traced_cpu_s",
        "overhead_frac",
    },
}


def entry_exempt(key: str) -> bool:
    return key.endswith(".wall_s") or key.startswith("micro.")


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        print(f"bench_diff: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        print(f"bench_diff: {path} is not a {SCHEMA} file", file=sys.stderr)
        sys.exit(2)
    experiments = doc.get("experiments")
    if not isinstance(experiments, dict):
        print(f"bench_diff: {path} has no experiments object", file=sys.stderr)
        sys.exit(2)
    return experiments


def show(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= 120 else text[:117] + "..."


def diff_entry(key: str, old, new, problems: list) -> None:
    skip = EXEMPT_FIELDS.get(key, set())
    if isinstance(old, dict) and isinstance(new, dict) and skip:
        for field in sorted(set(old) | set(new)):
            if field in skip:
                continue
            path = f"{key}.{field}"
            if field not in new:
                problems.append(f"missing in NEW: {path}")
            elif field not in old:
                problems.append(f"missing in OLD: {path}")
            elif old[field] != new[field]:
                problems.append(f"differs: {path}: {show(old[field])} -> {show(new[field])}")
    elif old != new:
        problems.append(f"differs: {key}: {show(old)} -> {show(new)}")


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = load(argv[1]), load(argv[2])
    problems = []
    compared = 0
    for key in sorted(set(old) | set(new)):
        if entry_exempt(key):
            continue
        if key not in new:
            problems.append(f"missing in NEW: {key}")
        elif key not in old:
            problems.append(f"missing in OLD: {key}")
        else:
            compared += 1
            diff_entry(key, old[key], new[key], problems)
    if problems:
        print(f"bench_diff: {len(problems)} difference(s) between {argv[1]} and {argv[2]}:")
        for line in problems:
            print(f"  - {line}")
        return 1
    print(f"bench_diff: OK ({compared} deterministic entries identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
