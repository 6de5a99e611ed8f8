#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
each run emits exactly the metrics BENCHMARK.json declares, with their
units, and writes its trace artifact. Then corrupts one result per
correctness gate (--corrupt) and checks that the gate fires: the run exits
non-zero and names the gate. Exits 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

OUT_DIR = os.path.join(run.ROOT, ".bench_build", "perfbench-selftest")
SCALE = "0.05"
SECONDS = "1.5"
# Each workload's correctness gates, by the result --corrupt damages, with
# the --trace value of the run that checks the gate.
GATES = {
    "link-inproc": {"matches": ("link-inproc.nondeterministic", "0"),
                    "composed": ("link-inproc.composed-mismatch", "0")},
    "link-daemon": {"partition": ("link-daemon.partition-mismatch", "0"),
                    "composed": ("link-daemon.composed-mismatch", "1")},
    "online-mixed": {"online": ("online-mixed.verify-mismatch", "0"),
                     "appends": ("online-mixed.appends-incomplete", "0")},
    "encode-keyed": {"pclk": ("encode-keyed.pclk-mismatch", "0")},
}


def drive(workload, trace, extra=()):
    command = [run.BINARY, "--workload", workload, "--seed", "7", "--seconds", SECONDS,
               "--trace", trace, "--scale", SCALE, "--out-dir", OUT_DIR] + list(extra)
    return subprocess.run(command, capture_output=True, text=True, timeout=170)


def check_metrics(workload, trace, proc, declared, failures):
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        failures.append(f"{where}: exit {proc.returncode}: {proc.stderr[-400:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        failures.append(f"{where}: correct/attempted/failed = {result['correct']}/"
                        f"{result['attempted']}/{result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        failures.append(f"{where}: missing {sorted(set(declared) - set(metrics))}, "
                        f"undeclared {sorted(set(metrics) - set(declared))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{where}: {name} value {value!r}")
        elif name in declared and entry.get("unit") != declared[name]:
            failures.append(f"{where}: {name} unit {entry.get('unit')!r}, "
                            f"declared {declared[name]!r}")
        elif trace == "0" and value == 0:
            failures.append(f"{where}: end-to-end metric {name} is 0")
    if trace == "1":
        artifact = os.path.join(OUT_DIR, f"{workload}-seed7-spans.json")
        try:
            with open(artifact) as f:
                spans = json.load(f)
            if not spans["spans"] or "uncovered" not in spans["layer_self_s"]:
                failures.append(f"{where}: trace artifact lacks spans or self times")
        except (OSError, ValueError, KeyError) as e:
            failures.append(f"{where}: trace artifact {artifact}: {e}")


def main():
    if not run.build():
        return 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(GATES):
        print(f"FAIL: BENCHMARK.json workloads {names} != {sorted(GATES)}")
        return 1
    failures = []
    for workload in names:
        check_metrics(workload, "0", drive(workload, "0"), end_to_end, failures)
        check_metrics(workload, "1", drive(workload, "1"), per_layer, failures)
        for corrupt, (gate, trace) in GATES[workload].items():
            proc = drive(workload, trace, ["--corrupt", corrupt])
            if proc.returncode == 0 or gate not in proc.stderr:
                failures.append(f"{workload} --corrupt {corrupt}: exit {proc.returncode}, "
                                f"gate {gate} not reported")
        print(f"{workload}: checked", flush=True)
    for failure in failures:
        print("FAIL:", failure)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
