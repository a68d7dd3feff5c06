"""ahrskit benchmark: one workload in this process, then one JSON line.

    python3 perfbench/run.py --workload replay --seed 11 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its
``src`` directory. With ``--trace 0`` it sets the workload up three
times (reporting the median), runs one untimed warm-up unit, then timed
units until ``--seconds`` have passed (at least three), and prints the
end-to-end metrics. With ``--trace 1`` it gives the per-layer numbers of
all three workloads, whatever ``--workload`` names, so that every layer
is measured on the workload that exercises it: for each it runs a warm-up
unit, then untraced, traced, traced and untraced units.

Every unit's outputs are checked; a unit that raises or fails a check
counts in ``failed``. The last line of standard output is the result,
``{"correct", "attempted", "failed", "metrics"}``. The line before it,
starting ``detail``, holds the environment, per-algorithm timings and
estimate digests. ``perfbench/suite.py`` runs every workload.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here

import os  # noqa: E402

# one thread per process, set before NumPy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("replay", "sweep", "cli-roundtrip")
SETUP_REPS = 3
MIN_UNITS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=11,
                        help="workload seed (default 11, the ROADMAP scenario)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure timed units for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def git_commit() -> str:
    """HEAD of the checkout, read from .git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": git_commit(), "seed": seed}


def timed_unit(workload, on_epoch=None, tracer=None):
    """Run one unit, timing only the work (traced into `tracer` if
    given), then check its outputs.

    Returns (wall seconds, {algorithm: seconds in run_pipeline}, Checked).
    """
    with tracer.installed(workload.name) if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        outputs, pipeline_s = workload.run(on_epoch)
        wall = time.perf_counter() - start
    check = workload.check(outputs)
    for failure in check.failures:
        print(f"check failed: {workload.name}: {failure}", file=sys.stderr)
    return wall, pipeline_s, check


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}})


def report_measure(make, seed: int, seconds: float, import_s: float) -> int:
    builds = []
    for rep in range(SETUP_REPS):
        workload = make(seed)
        start = time.perf_counter()
        workload.setup()
        builds.append(time.perf_counter() - start)
        if rep < SETUP_REPS - 1:
            workload.teardown()
    units, failed, digests = [], 0, None
    try:
        workload.run()  # warm-up, untimed
        deadline = time.perf_counter() + seconds
        while len(units) + failed < MIN_UNITS or time.perf_counter() < deadline:
            try:
                wall, pipeline_s, check = timed_unit(workload)
            except Exception:  # a failed unit is counted and the run goes on
                traceback.print_exc()
                failed += 1
                continue
            if digests is not None and check.digests != digests:
                print("check failed: estimate digests differ between units", file=sys.stderr)
                failed += 1
            elif check.failures:
                failed += 1
            else:
                digests = check.digests
                units.append((wall, pipeline_s, check))
    finally:
        workload.teardown()

    attempted = len(units) + failed
    print(f"{workload.name} seed={seed}: {attempted} timed units after 1 warm-up, "
          f"{failed} failed")
    if not units:
        print("error: no unit passed its checks", file=sys.stderr)
        return 1
    wall = statistics.median(u[0] for u in units)
    algorithms = list(units[0][1])
    samples_per_pass = workload.samples / len(algorithms)
    metrics = {
        "setup_s": (import_s + statistics.median(builds), "s"),
        "samples_per_s": (workload.samples / wall, "1/s"),
        "pipeline_us_per_sample": (
            statistics.median(sum(u[1].values()) for u in units) * 1e6 / workload.samples,
            "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    per_algorithm = {a: statistics.median(u[1][a] for u in units) * 1e6 / samples_per_pass
                     for a in algorithms}
    print(f"  {'setup_s':<26}{metrics['setup_s'][0]:>14.4f} s  (import {import_s:.4f} s "
          f"+ median of {SETUP_REPS} set-ups)")
    for key, (value, unit) in list(metrics.items())[1:]:
        print(f"  {key:<26}{value:>14.4f} {unit}")
    for algorithm, us in per_algorithm.items():
        print(f"  {algorithm.replace('-', '_') + '_us_per_sample':<26}{us:>14.4f} us")
    print(f"  {'rmse_max_deg':<26}{units[0][2].rmse_max_deg:>14.4f} deg")
    print(f"  {'failed_ratio':<26}{failed / attempted:>14.4f}  ({failed}/{attempted})")
    for algorithm, value in digests.items():
        print(f"  digest {algorithm}: {value}")
    detail = {"workload": workload.name, "env": environment(seed), "units": len(units),
              "unit_s": [u[0] for u in units], "failed_ratio": failed / attempted,
              "us_per_sample": per_algorithm, "rmse_max_deg": units[0][2].rmse_max_deg,
              "digests": digests}
    print("detail " + json.dumps(detail, sort_keys=True))
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0


def report_trace(seed: int) -> int:
    from tracing import Spans, Tracer
    from workloads import WORKLOADS
    tracer = Tracer()
    facts, digests, failed = {}, {}, 0
    for name, make in WORKLOADS.items():
        workload = make(seed)
        workload.setup()
        stamps = array("d")
        clock = time.perf_counter
        hook = lambda t, fs: stamps.append(clock())
        try:
            workload.run()  # warm-up, untimed
            # untraced, traced, traced, untraced: a drift in machine speed
            # during the four units cancels out of the overhead
            units = [timed_unit(workload), timed_unit(workload, hook, tracer),
                     timed_unit(workload, tracer=Tracer()), timed_unit(workload)]
            reference = [units[0], units[3]]
            fact = {"samples": workload.samples,
                    "reference_s": sum(u[0] for u in reference),
                    "traced_s": units[1][0] + units[2][0],
                    "reference_pipeline_s": {a: statistics.mean(u[1][a] for u in reference)
                                             for a in units[0][1]},
                    "stamps": stamps}
            if name == "replay":
                fact["records"] = len(workload.records)
            if name == "cli-roundtrip":
                fact["bytes_written"] = workload.bytes_written()
                fact["estimate_rows"] = workload.estimate_rows()
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        finally:
            workload.teardown()
        facts[name] = fact
        checks = [u[2] for u in units]
        digests[name] = checks[1].digests
        if any(c.digests != checks[0].digests for c in checks):
            print(f"check failed: {name}: traced estimates differ from untraced",
                  file=sys.stderr)
            failed += 1
        elif any(c.failures for c in checks):
            failed += 1
    if len(facts) < len(WORKLOADS):
        print("error: a traced workload raised", file=sys.stderr)
        return 1
    spans = Spans(tracer)
    layers = per_layer(spans, facts)
    print(f"traced run seed={seed}: {len(spans)} spans over {len(WORKLOADS)} workloads, "
          f"{failed} failed")
    for key, (value, unit) in layers.items():
        print(f"  {key:<44}{value:>16.4f} {unit}")
    detail = {"env": environment(seed), "spans": len(spans), "digests": digests}
    print("detail " + json.dumps(detail, sort_keys=True))
    print(result_line(failed == 0, len(WORKLOADS), failed, layers))
    return 0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(spans, facts) -> dict:
    """Per-layer metrics, each taken from the workload that exercises it."""
    import numpy as np
    m = {}
    replay = facts["replay"]
    records = replay["records"]
    whole = spans.segments["replay"]
    runs = {a: spans.subtree(f"pipeline.run_pipeline.{a}", "replay")
            for a in replay["reference_pipeline_s"]}

    for fn in ("time_update", "accel_update", "mag_update", "adaptive_factor"):
        s = spans.stats(f"dlkf.{fn}", runs["dlkf"])
        m[f"dlkf.{fn}.us_per_call"] = (s.us_per_call(), "us")
        m[f"dlkf.{fn}.calls_per_sample"] = (s.calls / records, "calls/sample")
    m["dlkf.apply_correction.self_us_per_call"] = (
        spans.stats("dlkf.apply_correction", runs["dlkf"]).self_us_per_call(), "us")

    s = spans.stats("fasteuler.accel_roll_pitch", runs["dlkf"])
    m["fasteuler.accel_roll_pitch.us_per_call"] = (s.us_per_call(), "us")
    m["fasteuler.accel_gate_pass_ratio.replay"] = (1.0 - _ratio(s.nones, s.calls), "ratio")
    s = spans.stats("fasteuler.accel_roll_pitch", spans.segments["sweep"])
    m["fasteuler.accel_gate_pass_ratio.sweep"] = (1.0 - _ratio(s.nones, s.calls), "ratio")
    m["fasteuler.mag_yaw.calls_per_sample"] = (
        spans.stats("fasteuler.mag_yaw", runs["dlkf"]).calls / records, "calls/sample")

    # geometry and propagation serve all three algorithms: per sample pass
    m["propagation.propagate.us_per_call"] = (
        spans.stats("propagation.propagate", whole).us_per_call(), "us")
    for fn in ("quat_to_euler", "euler_to_quat", "quat_to_dcm"):
        s = spans.stats(f"geometry.{fn}", whole)
        m[f"geometry.{fn}.us_per_call"] = (s.us_per_call(), "us")
        m[f"geometry.{fn}.calls_per_sample"] = (s.calls / replay["samples"], "calls/sample")
    m["complementary.cf_update.us_per_call"] = (
        spans.stats("complementary.cf_update", runs["cf"]).us_per_call(), "us")

    for algorithm, span_range in runs.items():
        untraced_s = replay["reference_pipeline_s"][algorithm]
        m[f"pipeline.run_us_per_sample.{algorithm}"] = (untraced_s * 1e6 / records, "us")
        s = spans.stats(f"pipeline.run_pipeline.{algorithm}", span_range)
        m[f"pipeline.self_us_per_sample.{algorithm}"] = (s.self_s * 1e6 / records, "us")
    # gaps between dlkf epochs; the first gap spans the alignment window
    gaps = np.diff(np.asarray(replay["stamps"]))[1:] * 1e6
    m["pipeline.epoch_us.p50"] = (float(np.percentile(gaps, 50)), "us")
    m["pipeline.epoch_us.p99"] = (float(np.percentile(gaps, 99)), "us")

    sweep = spans.segments["sweep"]
    m["pipeline.initial_alignment.ms"] = (
        spans.stats("pipeline.initial_alignment", sweep).ms_per_call(), "ms")
    m["simulate.simulate.us_per_sample"] = (
        spans.stats("simulate.simulate", sweep).total_s * 1e6 / facts["sweep"]["samples"], "us")
    m["metrics.rmse.ms"] = (spans.stats("metrics.rmse", sweep).ms_per_call(), "ms")

    cli = facts["cli-roundtrip"]
    seg = spans.segments["cli-roundtrip"]
    for fn, rows in (("write_log", cli["samples"]), ("read_log", cli["samples"]),
                     ("write_estimates", cli["estimate_rows"]),
                     ("read_estimates", cli["estimate_rows"])):
        m[f"logio.{fn}.us_per_row"] = (_ratio(spans.stats(f"logio.{fn}", seg).us_per_call(),
                                              rows), "us")
    m["logio.bytes_written"] = (cli["bytes_written"], "B")
    for fn in ("configio.load_scenario", "configio.load_pipeline_config", "metrics.evaluate"):
        m[f"{fn}.ms"] = (spans.stats(fn, seg).ms_per_call(), "ms")
    for command in ("sim", "run", "eval"):
        m[f"cli.{command}.self_s"] = (spans.stats(f"cli.{command}", seg).self_s, "s")

    for name, fact in facts.items():
        m[f"trace.overhead_pct.{name}"] = (
            100.0 * (fact["traced_s"] / fact["reference_s"] - 1.0), "%")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ahrskit" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'ahrskit'}; run from the root of an "
              "ahrskit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ahrskit
    from workloads import WORKLOADS  # imports the package's modules: part of set-up
    if Path(ahrskit.__file__).resolve().parent != SRC / "ahrskit":
        print(f"error: imported ahrskit from {ahrskit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _STARTED
    if args.trace:
        return report_trace(args.seed)
    return report_measure(WORKLOADS[args.workload], args.seed, args.seconds, import_s)


if __name__ == "__main__":
    sys.exit(main())
