#!/usr/bin/env python3
"""The pathmark benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds perfbench/pmbench.exe from
source with dune, runs one workload in a fresh process, and prints its
report.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

Exits nonzero, without printing a result, when the build fails, the run
fails or times out, or the metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("recognize-scan", "fleet-batch", "serve-mixed")
EXE = os.path.join("_build", "default", "perfbench", "pmbench.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, env=None):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out, err


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)

    # the shared dune cache lives outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        code, _, err = run(["dune", "build", "--root", ".", "./perfbench/pmbench.exe"],
                           BUILD_TIMEOUT_S, env)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if code != 0:
        sys.stderr.write(err)
        fail("build failed")

    code, out, err = run([EXE, "--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace)],
                         RUN_TIMEOUT_S)
    sys.stderr.write(err)
    if code != 0:
        fail("%s exited with %d" % (args.workload, code))
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = result["metrics"]
    extra = sorted(set(metrics) - {m["name"] for m in declared})
    if extra:
        fail("metrics not in BENCHMARK.json: %s" % ", ".join(extra))
    unused = []
    for m in declared:
        if m["name"] not in metrics:
            if not args.trace:
                fail("end-to-end metric %s missing" % m["name"])
            # a layer this workload never calls into did no work
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
            unused.append(m["name"])
        elif metrics[m["name"]]["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], metrics[m["name"]]["unit"], m["unit"]))
    ordered = {m["name"]: metrics[m["name"]] for m in declared}

    print("\n".join(lines[:-1]))
    if unused:
        print("  not called by this workload (reported as 0): " + ", ".join(unused))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": ordered}))


if __name__ == "__main__":
    main()
