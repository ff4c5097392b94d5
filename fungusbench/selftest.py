#!/usr/bin/env python3
"""Self-test of the FungusDB benchmark.

    python3 fungusbench/selftest.py

Runs the tiny mode of every workload with every check on (untraced and
traced), then shows that the checks catch a wrong answer: a count off by
one, a missing group key and a row dropped from the readings or the
events conservation tally must each turn the run's `correct` to false.
Finally it runs serve_read, which starts 4 client threads, on a single
CPU (the child's CPU affinity narrowed to one) and expects a refusal.
Exits nonzero on the first case that does not behave.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join(HERE, "run.py")]
WORKLOADS = ["serve_read", "rot_cycle"]


def run(args, cpus=None):
    narrow = None
    if cpus is not None:
        def narrow():
            os.sched_setaffinity(0, cpus)
    p = subprocess.run(RUN + args, capture_output=True, text=True,
                       timeout=600, preexec_fn=narrow)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return p.returncode, result, p.stdout + p.stderr


def tiny(workload, seed=3, trace=0, extra=(), cpus=None):
    return run(["--workload", workload, "--seed", str(seed), "--seconds",
                "2", "--trace", str(trace), "--tiny", *extra], cpus)


def expect(ok, what, output=""):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        print(output[-4000:])
        sys.exit(1)


def main():
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, result, out = tiny(workload, trace=trace)
            expect(rc == 0 and result is not None and result["correct"]
                   and result["failed"] == 0 and result["attempted"] > 0,
                   f"{workload} tiny trace={trace} passes its checks", out)
            trace_lines = [l for l in out.splitlines()
                           if l.startswith("trace: ")]
            if trace:
                path = trace_lines[0].split()[1] if trace_lines else ""
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                expect(events and all(
                    {"name", "ph", "ts", "dur", "pid", "tid"} <= e.keys()
                    for e in events), f"{workload} trace file is valid")
    cases = [("serve_read", "count"), ("serve_read", "group_key"),
             ("serve_read", "conservation"),
             ("rot_cycle", "count"), ("rot_cycle", "group_key"),
             ("rot_cycle", "conservation"),
             ("rot_cycle", "event_conservation")]
    for workload, perturb in cases:
        rc, result, out = tiny(workload, extra=("--perturb", perturb))
        expect(rc != 0 and result is not None and not result["correct"],
               f"{workload} rejects a perturbed answer ({perturb})", out)
    one_cpu = {min(os.sched_getaffinity(0))}
    rc, result, out = tiny("serve_read", cpus=one_cpu)
    expect(rc != 0 and result is None and "refusing" in out,
           "refuses 4 client threads on 1 CPU", out)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
