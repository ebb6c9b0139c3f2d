"""One benchmark worker: a fresh process that sets up, runs one pass of a
workload's operations in a closed loop, gates every verdict and prints one
JSON result line.  `run.py` starts it; run by hand as

    python3 perfbench/worker.py --workload terms-cap2 [--smoke] [--trace] [--setup-only]

from the root of the repository.  Set-up runs from the first statement below
to inputs ready: importing `ringops`, building the argument lists, loading
the fixture and enumerating R(n) for each arity the workload uses.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Call through the modules, so that the tracer's stand-ins are used.
from ringops import cli, operad_pair, operads, polynomials  # noqa: E402

import workloads  # noqa: E402


class SpeedProbe:
    """Times a fixed piece of pure-Python work every `interval` seconds.

    A shared host slows the whole machine for stretches of seconds to
    minutes.  The probe's times, spread evenly over set-up or a pass, show
    how much slower than usual the machine ran then; the program under test
    never runs in them, and the garbage collector is held off so that the
    program's heap does not either.  `spent` is the time the probe took,
    which the measured times leave out.  run.py rescales by the mean.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0

    @staticmethod
    def reference_work(n: int = 4000) -> int:
        table = {}
        for i in range(n):
            key = (i % 97, i % 13, i & 7)
            table[key] = table.get(key, 0) + len(sorted(key))
        return len(table)

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.reference_work()
        finally:
            if collecting:
                gc.enable()
        self.samples.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    def near(self, first: int, last: int, count: int = 20) -> float:
        """Mean of samples[first:last], or of the `count` samples nearest to
        that stretch when it holds fewer."""
        size = min(max(count, last - first), len(self.samples))
        low = min(max(0, first - (size - (last - first)) // 2), len(self.samples) - size)
        return statistics.fmean(self.samples[low:low + size])

    def burst(self, count: int = 30) -> None:
        """Probe `count` times back to back."""
        for _ in range(count):
            self._probe(None, None)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def run_command(command) -> tuple[int, str]:
    """Run one command; return its exit code and its JSON output."""
    if command.rcg is not None:
        pair_name, cap = command.rcg
        pair = (operad_pair.terminal_pair() if pair_name == "terminal"
                else operad_pair.terminal_sigma_pair())
        report = operads.check_axioms(operad_pair.build_RCG(pair, f"rcg-{pair_name}"), cap=cap)
        payload = {"ok": report.ok, "checked": report.checked, "skipped": report.skipped,
                   "failure": report.failure, "sections": report.sections}
        return (0 if report.ok else 1), json.dumps(payload)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--json", *command.argv])
    return code, out.getvalue()


def verdict(command, code: int, output: str):
    """None if the command answered as expected, else the reason it failed."""
    if code != command.exit_code:
        return f"exit code {code}, expected {command.exit_code}"
    try:
        payload = json.loads(output)
    except ValueError as err:
        return f"output is not JSON: {err}"
    return command.check(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--sample", action="store_true", help="sample the stack during the ops")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    started = time.time()
    # The probes would land in the spans and samples, so they run untraced only.
    probed = not (args.trace or args.sample)
    setup_probe = SpeedProbe() if probed else None
    if setup_probe is not None:
        setup_probe.start()
    # tracer.py is imported only when asked, so untraced set-up does not pay for it
    tracer = sampler = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if args.sample:
        from tracer import Sampler

        sampler = Sampler()
    ops = workloads.build(args.workload, args.seed, args.smoke)
    for n in workloads.arities(args.workload, args.smoke):
        polynomials.enumerate_R(n)
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s, "started": started}
    if setup_probe is not None:
        setup_probe.stop()
        result["setup_s"] -= setup_probe.spent
        # set-up can be shorter than the interval: probe on just after it too
        setup_probe.burst()
        result["setup_probe_s"] = statistics.fmean(setup_probe.samples)
    if args.setup_only:
        result["ended"] = time.time()
        print(json.dumps(result))
        return 0

    traced_before = tracer.self_total() if tracer else 0.0
    durations, probe_spans, outputs = [], [], []
    probe = SpeedProbe() if probed else None
    if sampler is not None:
        sampler.start()
    if probe is not None:
        probe.start()
    first = time.perf_counter()
    for op in ops:
        start = time.perf_counter()
        spent_before = probe.spent if probe else 0.0
        probes_before = len(probe.samples) if probe else 0
        answers = []
        for command in op.commands:
            try:
                answers.append(run_command(command))
            except (Exception, SystemExit) as err:  # a crash is a failed operation
                answers.append((None, f"{type(err).__name__}: {err}"))
        spent = probe.spent - spent_before if probe else 0.0
        durations.append(time.perf_counter() - start - spent)
        probe_spans.append((probes_before, len(probe.samples) if probe else 0))
        outputs.append(answers)
    wall_s = time.perf_counter() - first - (probe.spent if probe else 0.0)
    if probe is not None:
        probe.stop()
        if not probe.samples:  # a pass shorter than the interval
            probe._probe(None, None)
    if sampler is not None:
        sampler.stop()

    failures, instances = [], {}
    for op, answers in zip(ops, outputs):
        for command, (code, output) in zip(op.commands, answers):
            reason = output if code is None else verdict(command, code, output)
            if reason is not None:
                failures.append([op.label, reason])
                break
            checked = json.loads(output).get("checked")
            if checked is not None:
                instances[op.label] = checked
    result.update({
        "wall_s": wall_s,
        # label, seconds, and the mean time of the probes inside or nearest the op
        "ops": [[op.label, seconds, probe.near(*span) if probe else None]
                for op, seconds, span in zip(ops, durations, probe_spans)],
        "failures": failures,
        "instances": instances,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ended": time.time(),
    })
    if probe is not None:
        result["probe"] = {"count": len(probe.samples),
                           "mean_s": statistics.fmean(probe.samples)}
    if sampler is not None:
        result["samples"] = {"total": sampler.total, "fiber_work": sampler.fiber_work,
                             "innermost": dict(sampler.innermost)}
    if tracer is not None:
        result["trace"] = {
            "metrics": tracer.metrics(),
            "spans": {name: entry + [tracer.corrected_self(entry)]
                      for name, entry in tracer.spans.items()},
            "self_in_ops_s": tracer.self_total() - traced_before,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
