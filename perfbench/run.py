"""Benchmark runner for `ringops`: runs one workload for a given time.

    python3 perfbench/run.py --workload terms-cap2 --seed 1 --seconds 45 --trace 0

Run it from the root of the repository.  It starts one fresh worker process
at a time (`worker.py`, one pass of the workload each), so the load is one
busy core and every pass starts with cold caches, as every `ringops`
invocation does.  The worker's PYTHONHASHSEED is the seed.

With `--trace 0` it runs passes while the next one still fits in
`--seconds`, then set-up-only workers (at least MIN_SETUPS set-up times in
all, more while time is left), and reports the end-to-end metrics as medians
over them.  The times are rescaled by the worker's speed probe to a machine
where the probe takes REFERENCE_PROBE_S, because a shared host runs slower
for minutes at a time; the measured times are in the run record.  With
`--trace 1` it runs one untraced and one traced pass and reports the
per-layer metrics.
`--smoke` shrinks every workload to cap 1 and R(2) for the benchmark's own
tests.  The last line of standard output is the result; the line before it
is the run record (source, machine, load and timestamps of every worker).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "ringops"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_SETUPS = 3  # set-up times per run at least, more while time is left
MAX_SETUPS = 21
# On a shared host a pass can take half again as long as the one before it.
PASS_MARGIN = 1.5
WORKER_TIMEOUT_S = 170
# Traced self times must cover the traced wall time up to this share.
SPAN_COVERAGE_TOLERANCE = 0.05
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB"}
# The speed probe's mean time (worker.SpeedProbe) on the unloaded 2-CPU
# virtual machine the benchmark was built on, Python 3.11.
REFERENCE_PROBE_S = 0.002


class WorkerFailed(RuntimeError):
    pass


def start_worker(workload: str, seed: int, *flags: str) -> dict:
    """Run one worker process to completion and return its result."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {flags} timed out after {WORKER_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {flags} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def op_stats(seconds: list) -> tuple[float, float, float]:
    """Median and tail of a pass's operation times, and the tail's percentile.

    The tail is the highest percentile with at least ten operations beyond
    it; a pass of ten operations or fewer reports its slowest one.
    """
    seconds = sorted(seconds)
    n = len(seconds)
    if n <= 10:
        return statistics.median(seconds), seconds[-1], 100.0
    return statistics.median(seconds), seconds[n - 11], 100.0 * (n - 10) / n


def rescaled(seconds: float, probe_s: float) -> float:
    """A time measured while the probe took probe_s, on the reference machine."""
    return seconds * REFERENCE_PROBE_S / probe_s


def rescaled_ops(result: dict) -> list:
    """A pass's operation times, each rescaled by the probes nearest it."""
    return [rescaled(seconds, probe_s) for _, seconds, probe_s in result["ops"]]


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def timed_runs(args, flags: list[str], record: dict) -> tuple[list, list]:
    """Passes while the next, PASS_MARGIN times as long as the last, fits in
    the time, then set-ups: MIN_SETUPS in all, and up to MAX_SETUPS while the
    next still fits."""
    deadline = time.monotonic() + args.seconds
    passes, setups = [], []
    while True:
        began = time.monotonic()
        passes.append(start_worker(args.workload, args.seed, *flags))
        record["workers"].append(worker_row("pass", passes[-1]))
        pass_cost = PASS_MARGIN * (time.monotonic() - began)
        setup_cost = min(result["setup_s"] for result in passes) + 0.1
        missing = max(0, MIN_SETUPS - len(passes) - 1)
        if time.monotonic() + pass_cost + missing * setup_cost > deadline:
            break
    while len(passes) + len(setups) < MAX_SETUPS:
        began = time.monotonic()
        setups.append(start_worker(args.workload, args.seed, "--setup-only", *flags))
        record["workers"].append(worker_row("setup", setups[-1]))
        cost = time.monotonic() - began
        if len(passes) + len(setups) >= MIN_SETUPS and time.monotonic() + cost > deadline:
            break
    return passes, setups


def worker_row(kind: str, result: dict) -> dict:
    row = {"kind": kind, "started": result["started"], "ended": result["ended"],
           "setup_s": result["setup_s"]}
    if "wall_s" in result:
        row["wall_s"] = result["wall_s"]
        row["op_p50_s"], row["op_tail_s"], _ = op_stats([op[1] for op in result["ops"]])
        row["ops"] = result["ops"]
    return row


def end_to_end(passes: list, setups: list, record: dict) -> dict:
    stats = [op_stats(rescaled_ops(result)) for result in passes]
    # the median operation is recorded, not reported: see the README
    record["ops"] = {"per_pass": len(passes[0]["ops"]), "tail_percentile": stats[0][2],
                     "p50_s": statistics.median(s[0] for s in stats)}
    probes = [result["probe"]["mean_s"] for result in passes]
    record["measured"] = {
        "setup_s": statistics.median(r["setup_s"] for r in passes + setups),
        "wall_s": statistics.median(r["wall_s"] for r in passes),
        "probe_mean_s": probes,
    }
    values = {
        "setup_s": statistics.median(rescaled(r["setup_s"], r["setup_probe_s"])
                                     for r in passes + setups),
        "wall_s": statistics.median(rescaled(result["wall_s"], probe)
                                    for result, probe in zip(passes, probes)),
        "op_tail_s": statistics.median(s[1] for s in stats),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(untraced: dict, traced: dict, record: dict) -> dict:
    values = dict(traced["trace"]["metrics"])
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.untraced_wall_s"] = untraced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    values["trace.unattributed_s"] = traced["wall_s"] - traced["trace"]["self_in_ops_s"]
    record["samples"] = untraced["samples"]["total"]
    record["shares"] = role_shares(untraced["samples"])
    record["roles"] = role_checks(record["workload"], record["shares"])
    record["spans"] = traced["trace"]["spans"]
    return {name: {"value": values[name], "unit": unit_of(name)} for name in tracer.PER_LAYER}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("hit_ratio"):
        return "ratio"
    return "count"


# Each workload's stated role, as predicted shares of its sampled CPU time.
ROLES = {
    "terms-cap2": (("terms+operads.table", ">", 0.5), ("polynomials", "<", 0.1),
                   ("fiber work", "<", 0.1)),
    "kernel-cap3": (("kernel layers", ">", 0.5), ("fiber work", "<", 0.1),
                    ("terms", "<", 0.1)),
    "fibers-r3": (("fiber work", ">", 0.9), ("operads", "<", 0.1),
                  ("operad_pair", "<", 0.1), ("structure maps", "<", 0.1)),
}


def role_shares(samples: dict) -> dict:
    """Shares of the sampled CPU time of the operations, by layer and role."""
    total = samples["total"] or 1

    def share(*prefixes: str) -> float:
        return sum(count for name, count in samples["innermost"].items()
                   if name.startswith(prefixes)) / total

    shares = {layer: share(layer + ".") for layer in tracer.LAYERS}
    shares.update({
        "terms+operads.table": share("terms.", "operads.TableRingOperad."),
        "kernel layers": share("polynomials.", "indexcat.", "operad_pair.", "parsing."),
        "structure maps": share(*(f"{module}.{cls}.{method}"
                                  for module, cls in (("operads", "StrictRingOperad"),
                                                      ("operads", "TableRingOperad"),
                                                      ("operads", "DiscreteRingOperad"),
                                                      ("terms", "TermRingOperad"),
                                                      ("operad_pair", "PairRingOperad"))
                                  for method in ("act", "gamma", "_gamma"))),
        "fiber work": samples["fiber_work"] / total,
        "outside": share("outside"),
    })
    return shares


def role_checks(workload: str, shares: dict) -> list:
    return [
        {"share": name, "predicted": f"{op} {bound}", "measured": shares[name],
         "holds": shares[name] > bound if op == ">" else shares[name] < bound}
        for name, op, bound in ROLES[workload]
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="cap 1 and R(2): seconds, not minutes")
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no ringops sources at {PACKAGE}; run from the repository root",
              file=sys.stderr)
        return 2

    flags = ["--smoke"] if args.smoke else []
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, **source_identity(),
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(), "started": time.time(), "workers": [],
    }
    try:
        if args.trace:
            untraced = start_worker(args.workload, args.seed, "--sample", *flags)
            record["workers"].append(worker_row("pass", untraced))
            traced = start_worker(args.workload, args.seed, "--trace", *flags)
            record["workers"].append(worker_row("traced", traced))
            passes = [untraced, traced]
            metrics = per_layer(untraced, traced, record)
        else:
            passes, setups = timed_runs(args, flags, record)
            metrics = end_to_end(passes, setups, record)
    except WorkerFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    failures = [failure for result in passes for failure in result["failures"]]
    if args.trace:
        unattributed = metrics["trace.unattributed_s"]["value"]
        if abs(unattributed) > SPAN_COVERAGE_TOLERANCE * metrics["trace.wall_s"]["value"]:
            failures.append(["trace", f"span self times miss {unattributed:.3f} s of the wall time"])
    record.update({
        "failures": failures, "instances": passes[0]["instances"],
        "loadavg_end": os.getloadavg(), "ended": time.time(),
    })
    attempted = sum(len(result["ops"]) for result in passes)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures), "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
