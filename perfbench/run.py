"""Benchmark of the landmark-minsum package, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see `workloads.py`): sweep-small, cloud-100k, cli-2k, certify-tiny.
Each is a closed loop with one caller in one process: the next op starts only
when the previous one has returned.  The program comes from `src/` of the
checkout; the benchmark exits with code 2 if it is not there.

A run pins itself and its children to one CPU, sets up its inputs from the
seed three times (set-up time takes the median), warms up, then repeats
passes over the workload's fixed op list while another pass still fits in
`--seconds` (at least one pass).  Every op is checked after it returns,
untimed; a failed op is counted, not fatal.

Untraced (`--trace 0`) it reports the end-to-end metrics:
  setup_s          import + median input set-up + warm-up, in s
  wall_s           time of the ops of one pass, mean over passes, in s
  wall_adj_s       wall_s at the host's usual speed: wall_s times the probe's
                   nominal time over probe_s.trimmed (see `workloads.PROBES`)
  probe_s.trimmed  mean time of the probes taken before and within the timed
                   ops, without their lowest and highest tenth, in s
  op_s.p50         median op time, in s
  op_s.tail        highest percentile with at least ten ops beyond it
  peak_rss_mb      peak RSS of the process doing the work (cli-2k: the
                   largest child process), in MB
  failed_frac, queries_per_op, dist_to_target.mean, within_bound_frac
Traced (`--trace 1`), the package's entry points are wrapped (`spans.py`),
one untraced pass runs first to give the tracing overhead, and per-layer
metrics are reported as means per traced op; 0 means the layer did not run.

Stdout carries one JSON report line (metrics with units, parameters, machine,
failures, per-op digests and exact counts), then, as the last line, the
summary `{"correct", "attempted", "failed", "metrics"}`.  The report, and the
spans of a traced run, are also written to `.perfbench/results/`.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
STARTUP_PROBES = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
LAYERS = ("metric", "landmark", "sweep", "evaluation", "generate", "cli")

# The summary line's metrics.  wall_s, op_s.p50 and op_s.tail stay in the
# report only: on a shared 2-vCPU host the CPU speed drifts by up to 1.5x
# within minutes (a fixed pure-Python loop showed an interquartile range of
# 17-19% of its median over 30-second windows), so raw times spread past
# their bound from one run to the next.  wall_adj_s divides that drift out.
END_TO_END = (("setup_s", "s"), ("wall_adj_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("metric.query.calls", "count/op"), ("metric.query.s", "s/op"),
    ("metric.csv_write.s", "s/op"), ("metric.csv_write.bytes", "bytes/op"),
    ("metric.csv_read.s", "s/op"), ("metric.check_metric.s", "s/op"),
    ("landmark.table.s", "s/op"), ("landmark.table.self_s", "s/op"),
    ("landmark.table.pairs", "count/op"),
    ("landmark.cluster.calls", "count/op"), ("landmark.cluster.s", "s/op"),
    ("landmark.remainder.s", "s/op"), ("landmark.remainder.points", "count/op"),
    ("sweep.s", "s/op"), ("sweep.runs", "count/op"),
    ("sweep.useful_run_frac", "ratio"), ("sweep.enumerate.s", "s/op"),
    ("sweep.candidates", "count/op"), ("sweep.candidate_bytes", "bytes/op"),
    ("evaluation.objectives.s", "s/op"), ("evaluation.classify.s", "s/op"),
    ("evaluation.distance.s", "s/op"), ("evaluation.stability.s", "s/op"),
    ("evaluation.stability.us_per_partition", "us"),
    ("generate.instance.s", "s/op"), ("generate.bundle.s", "s/op"),
    ("cli.startup.s", "s"), ("cli.generate.s", "s/op"), ("cli.cluster.s", "s/op"),
    ("cli.sweep.s", "s/op"), ("cli.evaluate.s", "s/op"), ("cli.verify.s", "s/op"),
    ("cli.artifact.bytes", "bytes/op"),
    *((f"{layer}.self_s", "s/op") for layer in LAYERS),
    ("trace.overhead_s", "s"), ("trace.spans", "count/op"),
)


def run_pass(wl, recorder) -> list[dict]:
    """One pass over the op list; each op is timed, then checked untimed."""
    records = []
    for op in wl.op_list:
        wl.gap()
        inner = len(wl.probe_s)
        if recorder is not None:
            recorder.op = op["id"]
        t0 = time.perf_counter()
        try:
            outcome = wl.execute(op, recorder)
        except Exception as exc:  # an op that raises is a failed op
            outcome = {"exception": f"{type(exc).__name__}: {exc}"}
        # Probes taken within the op (between its steps) are not its time.
        seconds = time.perf_counter() - t0 - sum(wl.probe_s[inner:])
        if recorder is not None:
            recorder.op = None
        if "exception" in outcome:
            rec = workloads.op_record(op, failure=outcome["exception"])
        else:
            try:
                rec = wl.check(op, outcome)
            except Exception as exc:  # malformed output is a failed op
                rec = workloads.op_record(op, failure=f"check: {type(exc).__name__}: {exc}")
        rec["seconds"] = seconds
        records.append(rec)
    return records


def timed_passes(wl, recorder, seconds: float) -> list[list[dict]]:
    """Whole passes while the next one is expected to end within `seconds`."""
    passes = []
    wl.probe_s = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl, recorder))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def digest_of(rec: dict) -> tuple:
    return (rec["labels_sha256"], rec["artifact_sha256"],
            json.dumps(rec["counts"], sort_keys=True))


def tail(times: list[float]) -> dict | None:
    ordered = sorted(times)
    count = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * count)
        if count - rank >= 10:
            return {"value": ordered[rank - 1], "unit": "s", "percentile": p,
                    "ops_beyond": count - rank, "ops": count}
    return None


def mean_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else None


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest tenth of the values.  The host's
    speed switches between levels, so the mean follows the share of time
    spent at each (a median only says which held longer); the trim drops
    probes hit by an interrupt."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def end_to_end(wl, passes, setup_s: float) -> dict:
    records = [r for p in passes for r in p]
    times = [r["seconds"] for r in records]
    wall_s = sum(times) / len(passes)
    probe_s = trimmed_mean(wl.probe_s)
    child_rss = [r["peak_rss_mb"] for r in records if r["peak_rss_mb"] is not None]
    rss = max(child_rss) if child_rss else (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": wall_s, "unit": "s"},
        "wall_adj_s": {"value": wall_s * workloads.PROBES[wl.probe_kind][1] / probe_s,
                       "unit": "s"},
        "probe_s.trimmed": {"value": probe_s, "unit": "s", "probe": wl.probe_kind},
        "op_s.p50": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    tail_value = tail(times)
    if tail_value is not None:
        metrics["op_s.tail"] = tail_value
    metrics.update({
        "failed_frac": {"value": sum(r["failure"] is not None for r in records)
                        / len(records), "unit": "ratio"},
        "queries_per_op": {"value": statistics.fmean(r["queries"] for r in records),
                           "unit": "count"},
        "dist_to_target.mean": {"value": mean_or_none(r["dist_to_target"] for r in records),
                                "unit": "ratio"},
        "within_bound_frac": {"value": mean_or_none(r["within_bound"] for r in records),
                              "unit": "ratio"},
    })
    return metrics


def per_layer(recorded: list, passes, untraced_wall: float, startup_s: float) -> dict:
    records = [r for p in passes for r in p]
    ops = len(records)
    child_ns = defaultdict(int)
    for name, start, end, parent, _op, _counts in recorded:
        if parent is not None:
            child_ns[parent] += end - start
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    for index, (name, start, end, _parent, _op, span_counts) in enumerate(recorded):
        total[name] += (end - start) / 1e9
        self_s = (end - start - child_ns[index]) / 1e9
        own[name] += self_s
        own["layer:" + name.split(".")[0]] += self_s
        calls[name] += 1
        for key, value in (span_counts or {}).items():
            counts[f"{name}.{key}"] += value
    runs = sum(r["counts"].get("sweep.runs", 0) for r in records)
    useful = sum(r["counts"].get("sweep.useful_runs", 0) for r in records)
    partitions = counts["evaluation.stability.partitions"]
    traced_wall = sum(r["seconds"] for r in records) / len(passes)
    values = {
        "metric.query.calls": calls["metric.query"] / ops,
        "metric.csv_write.bytes": counts["metric.csv_write.bytes"] / ops,
        "landmark.table.self_s": own["landmark.table"] / ops,
        "landmark.table.pairs": counts["landmark.table.pairs"] / ops,
        "landmark.cluster.calls": calls["landmark.cluster"] / ops,
        "landmark.remainder.points": counts["landmark.remainder.points"] / ops,
        "sweep.s": total["sweep"] / ops,
        "sweep.runs": counts["sweep.runs"] / ops,
        "sweep.useful_run_frac": useful / runs if runs else 0.0,
        "sweep.candidates": counts["sweep.enumerate.candidates"] / ops,
        "sweep.candidate_bytes": counts["sweep.enumerate.bytes"] / ops,
        "evaluation.stability.us_per_partition": (
            1e6 * total["evaluation.stability"] / partitions if partitions else 0.0),
        "cli.startup.s": startup_s,
        "cli.artifact.bytes": statistics.fmean(
            r["counts"].get("cli.artifact.bytes", 0) for r in records),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": len(recorded) / ops,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = own["layer:" + layer] / ops
    for name, unit in PER_LAYER:
        if name not in values and name.endswith(".s"):
            values[name] = total[name[:-2]] / ops
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def startup_probe(launch: Path) -> float:
    """Median wall time of `landmark-minsum --version` in a fresh process."""
    times = []
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(launch), "--", "--version"],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # One CPU for this process and its children: the two vCPUs of a shared
    # host were seen to run up to 15% apart in speed at the same moment, and
    # the probes must see the CPU that the ops run on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    if not (SRC / "landmark_minsum" / "__init__.py").is_file():
        sys.stderr.write(f"no package sources at {SRC / 'landmark_minsum'}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import landmark_minsum

    if Path(landmark_minsum.__file__).resolve().parent != SRC / "landmark_minsum":
        sys.stderr.write(f"imported landmark_minsum from {landmark_minsum.__file__}\n")
        return 2
    import_s = time.perf_counter() - T_START
    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        input_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            input_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        wl.warm_up()
        warm_up_s = time.perf_counter() - t0
        setup_s = import_s + statistics.median(input_s) + warm_up_s

        recorder = None
        untraced = []
        startup_s = 0.0
        if args.trace:
            untraced = [run_pass(wl, None)]
            if wl.subprocesses:
                startup_s = startup_probe(workloads.LAUNCH)
            recorder = spans.Recorder()
            undo = spans.install(recorder)
        passes = timed_passes(wl, recorder, args.seconds)
        if recorder is not None:
            spans.uninstall(undo)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = [r for p in passes for r in p]
    reference = [digest_of(r) for r in (untraced or passes)[0]]
    deterministic = all([digest_of(r) for r in p] == reference for p in untraced + passes)
    failures = [{"pass": i, "op": r["op"], "exit": r["exit"], "failure": r["failure"]}
                for i, p in enumerate(untraced + passes) for r in p
                if r["failure"] is not None]
    failed = sum(r["failure"] is not None for r in records)
    metrics = end_to_end(wl, passes, setup_s)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": wl.why, "params": wl.params(),
        "machine": {**machine(), "pinned_cpu": cpu},
        "closed_loop": {"callers": 1, "child_processes": "one per subcommand, one at a time"
                        if wl.subprocesses else "none"},
        "setup": {"import_s": import_s, "input_s": input_s, "warm_up_s": warm_up_s},
        "passes": len(passes), "ops_per_pass": len(passes[0]),
        "metrics": metrics,
        "failures": failures,
        "deterministic": deterministic,
        "digests": [{k: r[k] for k in ("op", "labels_sha256", "artifact_sha256", "counts")}
                    for r in passes[0]],
        "probe_s": wl.probe_s,
        "ops": [{"op": r["op"], "seconds": r["seconds"], "dist_to_target": r["dist_to_target"],
                 "within_bound": r["within_bound"]} for r in records],
    }
    if args.trace:
        report["untraced_wall_s"] = sum(r["seconds"] for r in untraced[0])
        report["per_layer"] = per_layer(
            recorder.spans, passes, report["untraced_wall_s"], startup_s)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if args.trace:
        (results / f"{stem}.spans.json").write_text(json.dumps(recorder.spans))
    print(json.dumps(report))
    summary = report["per_layer"] if args.trace else {
        name: metrics[name] for name, _unit in END_TO_END}
    print(json.dumps({"correct": failed == 0 and deterministic,
                      "attempted": len(records), "failed": failed,
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
