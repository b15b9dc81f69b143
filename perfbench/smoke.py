#!/usr/bin/env python3
"""Smoke test for perfbench: every workload at a tiny size.

Run from the repository root:

    python3 perfbench/smoke.py

For each workload in BENCHMARK.json it runs one untraced and one traced
pass with --tiny, and checks that each pass exits 0 with "correct": true,
prints exactly the metrics BENCHMARK.json names (end_to_end untraced,
per_layer traced) with their units, and that a second run with the same
seed reproduces the kernels' checksums. Exits non-zero on any failure.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def bench(workload, seed, trace):
    out = subprocess.run(
        [os.path.join(run.BUILD_DIR, "perfbench"), "--workdir", run.BUILD_DIR,
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=180)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    checksums = [l for l in lines if l.startswith("checksums:")]
    return out.returncode, result, checksums, out.stdout + out.stderr


def main():
    spec = json.load(open("BENCHMARK.json"))
    if not run.build():
        print("smoke: build failed")
        return 1
    errors = []
    for w in spec["workloads"]:
        name = w["name"]
        first = None
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, result, checksums, text = bench(name, 7, trace)
            where = f"{name} --trace {trace}"
            if rc != 0 or not result or result.get("correct") is not True:
                errors.append(f"{where}: rc={rc}\n{text}")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                errors.append(f"{where}: metrics differ: missing "
                              f"{sorted(set(want) - set(got))}, extra "
                              f"{sorted(set(got) - set(want))}, units "
                              f"{[k for k in want if k in got and got[k] != want[k]]}")
            if result["attempted"] < 1 or result["failed"] != 0:
                errors.append(f"{where}: attempted={result['attempted']} "
                              f"failed={result['failed']}")
            if first is None:
                first = checksums
            elif checksums != first:
                errors.append(f"{where}: checksums differ for one seed: "
                              f"{first} vs {checksums}")
            print(f"smoke: {where}: ok, {len(got)} metrics")
    for e in errors:
        print("smoke FAILED:", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
