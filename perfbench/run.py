#!/usr/bin/env python3
"""Build and run the repository benchmark; run from the repository root.

    python3 perfbench/run.py --workload fig6|server|server-domains|all \
        --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune from the sources in this checkout,
runs it, checks that its final JSON line reports exactly the metrics
BENCHMARK.json names (the end-to-end ones with --trace 0, the per-layer
ones with --trace 1), and passes its output through.  `all` runs every
workload of BENCHMARK.json in turn.  The traced run's call spans are
written to perfbench/out/spans-<workload>.jsonl.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
OUT_DIR = os.path.join("perfbench", "out")


def fail(msg, code=1):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, limit):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s did not finish within %d s" % (cmd[0], limit))
    return proc.returncode, out.decode()


def check_result(line, spec, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result line has keys %s" % sorted(result))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    if sorted(got) != sorted(units):
        fail("metrics %s, expected %s" % (sorted(got), sorted(units)))
    for name, unit in units.items():
        if got[name]["unit"] != unit:
            fail("metric %s has unit %s, expected %s" % (name, got[name]["unit"], unit))


def run_workload(name, args, spec, limit):
    cmd = [EXE, "--workload", name, "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--spans", os.path.join(OUT_DIR, "spans-%s.jsonl" % name)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    code, out = run(cmd, limit)
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail("bench.exe exited with code %d" % code, code or 1)
    check_result(lines[-1], spec, args.trace == 1)
    sys.stdout.write(out)
    sys.stdout.flush()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    t0 = time.monotonic()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a full checkout (dune-project and lib/ not found)", 2)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload %s" % args.workload, 2)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH", 2)

    code, out = run([dune, "build", "--root", ".", "--display", "quiet", "--cache=disabled",
                     "./perfbench/bench.exe"], BUILD_LIMIT_S)
    sys.stdout.write(out)
    if code != 0:
        fail("build failed")

    os.makedirs(OUT_DIR, exist_ok=True)
    # A first build may take most of its 900 s; otherwise the whole run,
    # build included, must end within 180 s.
    build_s = time.monotonic() - t0
    limit = RUN_LIMIT_S if build_s > 60 else RUN_LIMIT_S - build_s
    for name in names if args.workload == "all" else [args.workload]:
        run_workload(name, args, spec, limit)
        limit = RUN_LIMIT_S

if __name__ == "__main__":
    main()
