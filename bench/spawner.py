"""Launches the benchmark's CLI children from a small process.

A child's peak RSS (``ru_maxrss``) starts at the high-water RSS of the
process it was forked from, so children forked straight from the benchmark,
which holds the streams and banks, would report the benchmark's memory as
their own.  This process stays small and forks every child instead.

It also runs the probe, fixed pure-Python work whose time says how fast
the shared machine is at the moment.  It runs here because this process's
state never changes: in the benchmark's own process the same work takes
longer or shorter with the size of the heap that the workload left behind.

Protocol: one JSON request per stdin line, either ``{"probe": count}``,
answered by ``{"probe": [seconds, ...]}``, or ``{"argv", "cwd", "env",
"stdin", "out", "err", "timeout"}`` (``stdin`` is a file whose bytes are
read into memory before the clock starts and written to the child's stdin
pipe, or null), answered by ``{"code", "wall", "maxrss_kb"}``; one JSON
reply per stdout line.  The process exits when its stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def probe() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(250_000):
        s += i * i
    return time.perf_counter() - t0


def run(req: dict) -> dict:
    data = None
    if req["stdin"] is not None:
        with open(req["stdin"], "rb") as fp:
            data = fp.read()
    with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            req["argv"], cwd=req["cwd"], env=req["env"], stdout=out, stderr=err,
            stdin=subprocess.PIPE if data is not None else subprocess.DEVNULL,
        )
        watchdog = threading.Timer(req["timeout"], proc.kill)
        watchdog.start()
        try:
            if data is not None:
                try:
                    proc.stdin.write(data)
                    proc.stdin.close()
                except BrokenPipeError:
                    pass
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        reply = {"probe": [probe() for _ in range(req["probe"])]} if "probe" in req else run(req)
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
