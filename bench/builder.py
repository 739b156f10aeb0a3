"""Constructs the workload's ``EstimatorBank`` over and over for ``setup_s``.

Constructing a bank allocates large arrays.  In the benchmark's own
process, how long that takes depends on what ran there before: once the
shard merge has allocated and freed large arrays, glibc's malloc serves
the next construction from memory it kept (no page faults, about half the
time); before that, from fresh pages.  This process does nothing but
construct banks, so every sample sees the same allocator state, whatever
the other operations do, and pays the page faults a new CLI process pays.

Usage: ``builder.py '<config JSON>'`` with ``k``, ``n``, ``width``,
``epsilon``, ``delta`` and ``seed``; ``prodsketch`` must be importable.
It constructs one bank untimed, then answers one JSON request per stdin
line, ``{"seconds": s}``: back-to-back constructions filling ``s`` seconds
(at least one), answered by ``{"count", "wall", "s1", "s2", "items"}`` on
one stdout line, the last three from the last bank.  The process exits
when its stdin closes.
"""

import json
import sys
import time

from prodsketch.estimator import AccuracyParams, EstimatorBank
from prodsketch.field import FieldSpec
from prodsketch.sketch import SketchConfig


def main() -> None:
    cfg = json.loads(sys.argv[1])
    config = SketchConfig(k=cfg["k"], n=cfg["n"], spec=FieldSpec(cfg["width"]))
    params = AccuracyParams(epsilon=cfg["epsilon"], delta=cfg["delta"])

    def build() -> EstimatorBank:
        return EstimatorBank(config, params=params, master_seed=cfg["seed"])

    build()  # warm-up: first-call costs a new process pays once
    for line in sys.stdin:
        seconds = json.loads(line)["seconds"]
        count = 0
        t0 = time.perf_counter()
        while not count or time.perf_counter() - t0 < seconds:
            bank = build()
            count += 1
        wall = time.perf_counter() - t0
        print(json.dumps({"count": count, "wall": wall, "s1": bank.shape.s1,
                          "s2": bank.shape.s2, "items": bank.item_count}), flush=True)


if __name__ == "__main__":
    main()
