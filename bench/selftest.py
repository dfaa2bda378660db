#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at tiny size, both modes.

    python3 bench/selftest.py

Asserts that every metric BENCHMARK.json names is emitted with its unit (and
no other), that each ``<layer>.self_share`` lies in [0, 1], that the traced
replay reproduces the untraced outputs exactly, and that the benchmark exits
non-zero without a result where the program's sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd, workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in spec["workloads"]:
        name = wl["name"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            before = len(problems)
            proc = run(ROOT, name, trace)
            if proc.returncode != 0:
                problems.append(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            *_, info_line, result_line = proc.stdout.strip().splitlines()
            result, info = json.loads(result_line), json.loads(info_line)["info"]
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics differ: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if k in got and got[k] != want[k]]}")
            for key, value in result["metrics"].items():
                if not isinstance(value["value"], (int, float)):
                    problems.append(f"{name}: {key} is not a number")
                if key.endswith(".self_share") and not 0 <= value["value"] <= 1:
                    problems.append(f"{name}: {key} = {value['value']} outside [0, 1]")
            if trace and info["mismatches"]:
                problems.append(f"{name}: {info['mismatches']} traced outputs differ from untraced")
            print(f"{name:15s} trace={trace} ok={len(problems) == before} ops={result['attempted']}")

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("benchmark without the program's sources did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    for p in problems:
        print("FAIL:", p)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
