"""Smoke run of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Run from the root of a graphvar checkout.  Runs every workload of
BENCHMARK.json untraced and traced at the tiny sizes for one second each, and
checks that each run prints every metric of its group by name with its unit
and sample count, that error_rate is 0, and that the last line is a
well-formed result.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return [f"last line is not a JSON result: {exc}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted={result.get('attempted')}")
    group = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in group}:
        problems.append(f"metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in group})}")
    for m in group:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{m['name']}: result entry {got}")
        shown = re.compile(rf"^{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}\s+n=\d+",
                           re.MULTILINE)
        if not shown.search(proc.stdout):
            problems.append(f"{m['name']} is not printed with unit {m['unit']} and a sample count")
    if not re.search(r"^error_rate\s+0\s+ratio\s+n=\d+", proc.stdout, re.MULTILINE):
        problems.append("error_rate is not printed as 0")
    return problems


def main() -> int:
    with open("BENCHMARK.json", encoding="ascii") as fh:
        spec = json.load(fh)
    failed = False
    for wl in spec["workloads"]:
        for trace in (0, 1):
            problems = check_run(spec, wl["name"], trace)
            print(f"{wl['name']} trace={trace}: {'ok' if not problems else 'FAIL'}")
            for p in problems:
                print(f"  {p}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
