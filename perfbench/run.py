"""Benchmark entry point.

    python3 perfbench/run.py --workload {query_hot,query_miss} \
        --seed N --seconds S --trace {0,1}

Runs one measurement in a child process (``perfbench.bench``) with a
bounded wall time, relays its output and prints the result JSON as the
last line of stdout. A child that overruns is killed with every process
it started and the run is reported as failed (exit code 1). Without the
``lucene_ray`` sources next to this directory it exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

RUN_WALL_LIMIT_S = 165
WORK_PARENT = os.path.join(ROOT, ".pbw")


def _kill_tree(proc: subprocess.Popen | None, work: str) -> None:
    """Kill the measurement's process group and every process of its Ray
    session, and wait until they are gone. After a clean exit there is
    nothing left to kill."""
    from perfbench.bench import ray_pids
    if proc is not None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
    for pid in ray_pids(work):
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    if proc is not None:
        proc.wait()
    deadline = time.monotonic() + 10
    while ray_pids(work) and time.monotonic() < deadline:
        time.sleep(0.2)


def _remove_stale_work_dirs() -> None:
    """Work dirs of runs that were killed before they could clean up;
    a dir is named after its run's pid, and live runs keep theirs."""
    if not os.path.isdir(WORK_PARENT):
        return
    for name in os.listdir(WORK_PARENT):
        if name.isdigit() and os.path.exists(f"/proc/{name}"):
            continue
        _kill_tree(None, os.path.join(WORK_PARENT, name))
        shutil.rmtree(os.path.join(WORK_PARENT, name), ignore_errors=True)


def _remove_work_dir(work: str) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        os.rmdir(WORK_PARENT)  # only if no other run is using it
    except OSError:
        pass


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="full")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "lucene_ray", "__init__.py")):
        print("perfbench: lucene_ray sources not found next to perfbench/",
              file=sys.stderr)
        return 2

    _remove_stale_work_dirs()
    work = os.path.join(WORK_PARENT, str(os.getpid()))
    os.makedirs(os.path.join(work, "tmp"))
    env = dict(os.environ)
    env["PYTHONPATH"] = ROOT + os.pathsep + env.get("PYTHONPATH", "")
    env["TMPDIR"] = os.path.join(work, "tmp")  # temp files stay in it
    cmd = [sys.executable, "-m", "perfbench.bench",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--scale", args.scale]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_WALL_LIMIT_S)
    except subprocess.TimeoutExpired:
        _kill_tree(proc, work)
        _remove_work_dir(work)
        print(f"perfbench: run exceeded {RUN_WALL_LIMIT_S}s and was killed",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    _kill_tree(proc, work)
    _remove_work_dir(work)
    lines = [line for line in out.splitlines() if line.strip()]
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        print(f"perfbench: measurement exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
