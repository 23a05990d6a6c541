"""Benchmark of eosched: one command, one workload per invocation.

    python3 perfbench/run.py --workload desk_dmrc --seed 0 --seconds 30 --trace 0

Run from the repository root. This process writes the workload's inputs
(JSON config, and the contact-plan file where the workload reads one)
under perfbench/out/, then starts one workload process (worker.py), which
imports eosched from src/ and drives ``eosched.cli.main``. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``, whose spans go
to perfbench/out/trace_<workload>_seed<seed>.json. See README.md.
"""

import pin_threads  # noqa: F401  (must precede numpy)

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
# The whole invocation has to end within 180 s.
DEADLINE_S = 170.0


def main(argv=None) -> int:
    started = time.monotonic()
    p = argparse.ArgumentParser(description="eosched benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # On SIGTERM, unwind so that the workload process is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    if not (HERE.parent / "src" / "eosched" / "__init__.py").is_file():
        print("error: run from a checkout holding src/eosched", file=sys.stderr)
        return 2

    workdir = OUT / f"work_{args.workload}_seed{args.seed}_{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        config = write_inputs(WORKLOADS[args.workload], args.seed, workdir)
        result_path = workdir / "result.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--config", str(config),
            "--result", str(result_path),
            "--trace-out", str(OUT / f"trace_{args.workload}_seed{args.seed}.json"),
            "--t0-ns", str(time.monotonic_ns()),
        ]
        # The worker's stdout goes to stderr: this process's stdout ends
        # with the result line alone.
        proc = subprocess.Popen(cmd, stdout=sys.stderr)
        try:
            rc = proc.wait(timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
                print("error: workload process stopped before it ended", file=sys.stderr)
        if rc != 0 or not result_path.is_file():
            print(f"error: workload process exited with {rc}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
