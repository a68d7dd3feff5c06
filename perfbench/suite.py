"""Run the whole ahrskit benchmark: every workload, then the traced run.

    python3 perfbench/suite.py [--seed 11] [--seconds 20] [--out FILE]

Each workload runs in its own process through ``perfbench/run.py`` with
tracing off; one more process gives the per-layer numbers with tracing
on. Their reports are echoed, a metric-by-workload table is printed and,
with ``--out``, everything (end-to-end metrics, per-algorithm timings,
failure ratios, estimate digests, per-layer metrics and the environment)
is written to FILE as JSON. Exits 1 if any run fails or any unit fails
its checks.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("replay", "sweep", "cli-roundtrip")


def run(workload: str, seed: int, seconds: float, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if not line.startswith("detail "):
            print(line)
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}")
    detail = next(json.loads(line[7:]) for line in lines if line.startswith("detail "))
    return json.loads(lines[-1]), detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, help="write the results here as JSON")
    args = parser.parse_args(argv)

    summary = {"seed": args.seed, "seconds": args.seconds, "end_to_end": {},
               "us_per_sample": {}, "failed_ratio": {}, "digests": {}}
    ok = True
    for workload in WORKLOADS:
        result, detail = run(workload, args.seed, args.seconds, 0)
        ok &= result["correct"]
        summary["env"] = detail["env"]
        summary["end_to_end"][workload] = result["metrics"]
        summary["us_per_sample"][workload] = detail["us_per_sample"]
        summary["failed_ratio"][workload] = detail["failed_ratio"]
        summary["digests"][workload] = detail["digests"]
    result, detail = run(WORKLOADS[0], args.seed, args.seconds, 1)
    ok &= result["correct"]
    summary["per_layer"] = result["metrics"]
    summary["trace_digests"] = detail["digests"]

    names = list(summary["end_to_end"][WORKLOADS[0]])
    print(f"\n{'metric':<26}" + "".join(f"{w:>16}" for w in WORKLOADS) + "  unit")
    for name in names:
        cells = [summary["end_to_end"][w][name] for w in WORKLOADS]
        print(f"{name:<26}" + "".join(f"{c['value']:>16.4f}" for c in cells)
              + f"  {cells[0]['unit']}")
    print(f"{'failed_ratio':<26}"
          + "".join(f"{summary['failed_ratio'][w]:>16.4f}" for w in WORKLOADS))
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
        print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
