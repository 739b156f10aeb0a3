"""Run the benchmark over several seeds and write BENCH_<label>.json.

    python3 bench/record.py --label baseline

For each workload of ``BENCHMARK.json`` this runs ``bench/run.py`` once
for each of RUNS seeds, one run at a time, with the run length from
``BENCHMARK.json``, then one traced run.  For every end-to-end metric it reports the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, next to the metric's bound.  The summary goes to
``bench/BENCH_<label>.json`` together with the environment of the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SEED_BASE = 100  # seeds SEED_BASE .. SEED_BASE + RUNS - 1; the traced run uses SEED_BASE


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    env = next(json.loads(line[len("# env "):]) for line in lines if line.startswith("# env "))
    return {"env": env, **json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"label": args.label, "run_seconds": spec["run_seconds"], "workloads": {}}
    worst_ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, SEED_BASE + i, spec["run_seconds"], 0) for i in range(RUNS)]
        out["env"] = {k: v for k, v in runs[0]["env"].items() if k != "seed"}
        entry = {"seeds": [r["env"]["seed"] for r in runs],
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs), "end_to_end": {}}
        print(f"== {workload}: {entry['failed']} of {entry['attempted']} operations failed")
        for name, bound in bounds.items():
            summary = summarize([r["metrics"][name]["value"] for r in runs])
            summary["bound"] = bound
            summary["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = summary
            ok = summary["spread"] <= bound / 3
            worst_ok &= ok
            print(f"  {name:<26} median {summary['median']:<14.6g} {summary['unit']:<6} "
                  f"spread {summary['spread']:.4f}  bound {bound}  "
                  f"{'ok' if ok else 'WIDE (over a third of the bound)'}")
        traced = run_once(workload, SEED_BASE, spec["run_seconds"], 1)
        entry["per_layer"] = traced["metrics"]
        entry["failed"] += traced["failed"]
        entry["attempted"] += traced["attempted"]
        out["workloads"][workload] = entry
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
