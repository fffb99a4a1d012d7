#!/usr/bin/env python3
"""Builds and runs the layered benchmark (see README.md next to this file).

    python3 perfbench/run.py --workload viewport-eps --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark package is configured and
built from source into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then kdv_perfbench runs the workload. Build output
goes to stderr; the last stdout line is the one-line JSON result, with the
metrics in the order BENCHMARK.json lists them (a per-layer metric the
workload does not measure reads 0). A full JSON report (configuration,
counters, registry snapshots, spans) is written to <build dir>/reports/.

--all runs every workload in turn and exits non-zero if any run failed or
reported a failed operation. --selftest checks that the exact work counters
repeat for one seed and differ across seeds, and that every run measures
only metrics BENCHMARK.json lists, with its units.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("viewport-eps", "hotspot-tau", "tile-serve")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds kdv_perfbench; returns its path."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "kdv_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(bdir, "kdv_perfbench")


def run(binary, argv, capture):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    try:
        proc = subprocess.run([binary] + argv, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout or ""


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def ordered(result, spec, trace):
    """Returns `result` with its metrics in BENCHMARK.json's order.

    Every end-to-end metric must be measured; a per-layer metric the
    workload does not measure reads 0. Raises ValueError on an unlisted
    name, a wrong unit or a value that is not a number.
    """
    listed = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    got = result["metrics"]
    for name, m in got.items():
        if units.get(name) != m["unit"]:
            raise ValueError("metric %s (%s) is not listed with that unit"
                             % (name, m["unit"]))
        if not isinstance(m["value"], (int, float)):
            raise ValueError("metric %s has no value" % name)
    metrics = {}
    for m in listed:
        if m["name"] not in got and not trace:
            raise ValueError("end-to-end metric %s not measured" % m["name"])
        value = got[m["name"]]["value"] if m["name"] in got else 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return dict(result, metrics=metrics)


def finish(out, spec, trace):
    """Echoes the binary's output with its result line put in order."""
    lines = out.strip().splitlines()
    result = ordered(json.loads(lines[-1]), spec, trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return result


def selftest(binary):
    spec = load_spec()
    ok = True
    for w in WORKLOADS:
        counts = []
        for seed in (1, 1, 2):
            rc, out = run(binary, ["--workload", w, "--seed", str(seed),
                                   "--counters"], True)
            if rc != 0:
                sys.exit("selftest: %s --counters exited %d" % (w, rc))
            counts.append(last_json(out))
        same = counts[0] == counts[1]
        differ = counts[0] != counts[2]
        print("%s counters: repeat=%s differ_across_seeds=%s %s"
              % (w, same, differ, counts[0]))
        ok = ok and same and differ
        for trace in (0, 1):
            rc, out = run(binary, ["--workload", w, "--seed", "3",
                                   "--seconds", "3", "--trace", str(trace)],
                          True)
            res, match = {}, False
            if rc == 0:
                res = last_json(out)
                try:
                    ordered(res, spec, trace)
                    match = True
                except ValueError as e:
                    print("%s trace=%d: %s" % (w, trace, e))
            good = (match and res["correct"] and res["failed"] == 0
                    and res["attempted"] >= 1)
            print("%s trace=%d: exit=%d metrics_match=%s attempted=%s "
                  "failed=%s" % (w, trace, rc, match, res.get("attempted"),
                                 res.get("failed")))
            ok = ok and good
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not (args.selftest or args.all) and args.workload is None:
        p.error("--workload, --all or --selftest is required")
    binary = build()
    if args.selftest:
        return selftest(binary)
    spec = load_spec()
    reports = os.path.join(build_dir(), "reports")
    os.makedirs(reports, exist_ok=True)
    worst = 0
    for w in WORKLOADS if args.all else (args.workload,):
        rc, out = run(binary, ["--workload", w, "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace),
                               "--report-dir", reports], True)
        if args.all:
            print("== %s" % w)
        if rc != 0:
            sys.stdout.write(out)
            sys.stderr.write("run.py: %s exited %d\n" % (w, rc))
            worst = worst or rc
            continue
        try:
            result = finish(out, spec, args.trace)
        except ValueError as e:
            sys.exit("run.py: %s: %s" % (w, e))
        if args.all and result["failed"] != 0:
            worst = worst or 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
