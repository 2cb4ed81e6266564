#!/usr/bin/env python3
"""Output self-test of the benchmark.

Runs every workload named in BENCHMARK.json at its smallest size
(`--scale test`), untraced and traced, and checks the last line of
standard output against the benchmark's output contract:

* one JSON object with exactly the keys correct, attempted, failed and
  metrics, and no key repeated;
* correct is true, attempted is a whole number >= 1, failed is 0;
* every end-to-end (untraced) or per-layer (traced) metric of
  BENCHMARK.json appears exactly once, with its unit and a finite value,
  and no other metric appears;
* every metric name matches [A-Za-z0-9_.-]+ (design mnemonics are
  sanitised, so I4/PB prints as I4-PB).

Run from anywhere: python3 perfbench/selftest.py. Exits 0 when every
check passes.
"""

import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def unique_keys(pairs):
    keys = [k for k, _ in pairs]
    dupes = sorted({k for k in keys if keys.count(k) > 1})
    if dupes:
        raise ValueError(f"repeated keys {dupes}")
    return dict(pairs)


def check_output(stdout, expected):
    """Problems with one run's output; `expected` maps name -> unit."""
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1], object_pairs_hook=unique_keys)
    except ValueError as e:
        return [f"last line is not one JSON object: {e}"]
    if not isinstance(result, dict):
        return ["last line is not a JSON object"]
    problems = []
    keys = set(result)
    if keys != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"top-level keys {sorted(keys)}")
    if result.get("correct") is not True:
        problems.append(f"correct is {result.get('correct')!r}")
    attempted, failed = result.get("attempted"), result.get("failed")
    if type(attempted) is not int or attempted < 1:
        problems.append(f"attempted is {attempted!r}")
    if type(failed) is not int or failed != 0:
        problems.append(f"failed is {failed!r}")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    for name in sorted(set(expected) - set(metrics)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(metrics) - set(expected)):
        problems.append(f"unexpected metric {name}")
    for name, m in metrics.items():
        if not NAME.fullmatch(name):
            problems.append(f"bad metric name {name!r}")
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append(f"{name}: not exactly value and unit: {m!r}")
            continue
        value = m["value"]
        if type(value) not in (int, float) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        if name in expected and m["unit"] != expected[name]:
            problems.append(f"{name}: unit {m['unit']!r}, expected {expected[name]!r}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            if not NAME.fullmatch(m["name"]):
                print(f"FAIL BENCHMARK.json: bad metric name {m['name']!r}")
                failures += 1
    for workload in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[section]}
            args = ["--workload", workload["name"], "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--scale", "test"]
            proc = subprocess.run(spec["command"] + args, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            label = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                problems = [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
            else:
                problems = check_output(proc.stdout, expected)
            print(("FAIL " if problems else "ok   ") + label)
            for p in problems:
                print(f"     {p}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
