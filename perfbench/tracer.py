"""Per-layer spans and stack samples, recorded from outside `ringops`.

`Tracer.install` replaces every public function of the layer modules, under
every `ringops` module attribute that refers to it (so `ringops.operads.compose`
is wrapped along with `ringops.polynomials.compose`), and the structure maps
`component`/`act`/`gamma` at their classes.  Each wrapper keeps, per span
name, the call count, the total time, the self time (total minus the time of
the spans it called) and the number of spans it called.  Spans are aggregated
in memory as they close, because a workload makes millions of calls;
`metrics` turns them into the per-layer figures when the run ends.

Wrapping costs about a microsecond a call, and part of that lands in the
self time of the caller.  `calibrate` measures both parts once, and the
reported self times have them taken off; the raw ones still add up to the
traced wall time.  For shares of the run, `Sampler` reads the stack on a
CPU-time timer in an untraced pass, which costs no time per call.

The term constructors `var`, `plus` and `times` are left unwrapped: they only
build a tuple, and their time is counted in the span that called them.
"""
from __future__ import annotations

import inspect
import signal
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

LAYERS = ("polynomials", "indexcat", "operads", "operad_pair", "terms", "parsing", "cli")
UNWRAPPED = {"terms.var", "terms.plus", "terms.times"}

# The per-layer metrics of BENCHMARK.json, in its order.
PER_LAYER = (
    "polynomials.compose.calls", "polynomials.compose.self_s",
    "polynomials.compose.cache_hit_ratio", "polynomials.enumerate_R.self_s",
    "polynomials.lambda_of.calls", "polynomials.lambda_of.self_s",
    "indexcat.enumerate_hom.calls", "indexcat.enumerate_hom.self_s",
    "indexcat.induced_lambda_maps.calls", "indexcat.induced_lambda_maps.self_s",
    "indexcat.validate.calls", "indexcat.validate.self_s", "indexcat.is_morphism.calls",
    "terms.sset.act.calls", "terms.sset.act.self_s",
    "terms.sset.gamma.calls", "terms.sset.gamma.self_s",
    "terms.pset.act.calls", "terms.pset.act.self_s",
    "terms.pset.gamma.calls", "terms.pset.gamma.self_s",
    "terms.compose_terms.calls", "terms.compose_terms.self_s",
    "terms.normalize_biperm.calls", "terms.normalize_biperm.self_s",
    "terms.cached_act.hit_ratio", "terms.cached_gamma.hit_ratio",
    "operad_pair.rcg-terminal.act.calls", "operad_pair.rcg-terminal.act.self_s",
    "operad_pair.rcg-terminal.gamma.calls", "operad_pair.rcg-terminal.gamma.self_s",
    "operad_pair.rcg-sigma.act.calls", "operad_pair.rcg-sigma.act.self_s",
    "operad_pair.rcg-sigma.gamma.calls", "operad_pair.rcg-sigma.gamma.self_s",
    "operads.strict.act.calls", "operads.strict.act.self_s",
    "operads.strict.gamma.calls", "operads.strict.gamma.self_s",
    "operads.table.act.calls", "operads.table.act.self_s",
    "operads.table.gamma.calls", "operads.table.gamma.self_s",
    "operads.check_axioms.self_s", "operads.check_einfty_set.self_s",
    "operads.validate_algebra.self_s",
    "terms.enumerate_fiber.sym.self_s", "terms.enumerate_fiber.biperm.self_s",
    "terms.connectivity_check.self_s", "terms.generator_moves.calls",
    "terms.bounded_fiber.hit_ratio", "terms.fiber_terms",
    "parsing.parse_fixture.calls", "parsing.parse_fixture.self_s",
    "parsing.print_poly.calls", "parsing.print_poly.self_s",
    "parsing.print_term.calls", "parsing.print_term.self_s",
    "cli.main.self_s",
    *(f"{layer}.self_s" for layer in LAYERS),
    "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.unattributed_s",
)
# Filled in by run.py from the traced and untraced passes.
RUN_METRICS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                  "trace.unattributed_s")


class Tracer:
    def __init__(self):
        # name -> [calls, total_s, self_s, direct child spans]
        self.spans: dict[str, list] = {}
        self.fiber_terms = 0
        # one frame per open span: [time of its closed children, its entry]
        self._frames = [[0.0, [0, 0.0, 0.0, 0]]]
        # wrapping cost one span adds to its caller's and to its own self time
        self.caller_bias_s = 0.0
        self.callee_bias_s = 0.0

    def _entry(self, name: str) -> list:
        return self.spans.setdefault(name, [0, 0.0, 0.0, 0])

    def wrap(self, fn: Callable, name: str = "",
             namer: Optional[Callable] = None, after: Optional[Callable] = None) -> Callable:
        """A traced stand-in for fn under a fixed name, or one namer(args) picks."""
        fixed = None if namer else self._entry(name)
        entry_of = self._entry
        frames = self._frames
        clock = time.perf_counter

        def traced(*args, **kwargs):
            entry = fixed or entry_of(namer(args, kwargs))
            frames[-1][1][3] += 1
            frame = [0.0, entry]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                frames[-1][0] += elapsed
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def calibrate(self, calls: int = 100_000, repeats: int = 3) -> None:
        """Measure what wrapping adds to a span's self time and its caller's."""

        def noop():
            pass

        def loop(fn, count):
            for _ in range(count):
                fn()

        caller, callee = [], []
        for _ in range(repeats):
            child = self.wrap(noop, "trace.calibrate.child")
            parent = self.wrap(loop, "trace.calibrate.parent")
            start = time.perf_counter()
            loop(noop, calls)
            plain = time.perf_counter() - start
            parent(child, calls)
            caller.append((self.spans["trace.calibrate.parent"][2] - plain) / calls)
            callee.append(self.spans["trace.calibrate.child"][2] / calls)
            del self.spans["trace.calibrate.child"], self.spans["trace.calibrate.parent"]
        self._frames[0][1][3] = 0
        self.caller_bias_s = max(0.0, min(caller))
        self.callee_bias_s = min(callee)

    def corrected_self(self, entry: list) -> float:
        """Self time less the calibrated wrapping cost of the span and its children."""
        return entry[2] - self.callee_bias_s * entry[0] - self.caller_bias_s * entry[3]

    def self_total(self) -> float:
        return sum(entry[2] for entry in self.spans.values())

    def install(self) -> None:
        """Wrap the layer modules of the imported `ringops` package."""
        from ringops import operad_pair, operads, terms

        self.calibrate()

        def count_fiber(result):
            self.fiber_terms += len(result.terms)

        special = {
            "terms.enumerate_fiber": dict(
                namer=lambda args, kwargs: "terms.enumerate_fiber."
                + (args[1] if len(args) > 1 else kwargs.get("mode", "sym")),
                after=count_fiber,
            ),
        }
        stand_ins = {}
        for layer in LAYERS:
            module = sys.modules[f"ringops.{layer}"]
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in UNWRAPPED:
                    continue
                if not (inspect.isfunction(value) or hasattr(value, "cache_info")):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                stand_ins[id(value)] = (value, self.wrap(value, name, **special.get(name, {})))
        for module_name, module in list(sys.modules.items()):
            if module_name != "ringops" and not module_name.startswith("ringops."):
                continue
            for attr, value in list(vars(module).items()):
                hit = stand_ins.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

        # Span prefix per flavour; term and pair operads are named by instance.
        flavours = {
            operads.StrictRingOperad: lambda operad: "operads.strict",
            operads.TableRingOperad: lambda operad: "operads.table",
            terms.TermRingOperad: lambda operad: f"terms.{operad.name}",
            operad_pair.PairRingOperad: lambda operad: f"operad_pair.{operad.name}",
        }

        def flavour(operad) -> str:
            return flavours[type(operad)](operad)

        targets = [(operads.DiscreteRingOperad, "gamma")] + [
            (cls, method) for cls in flavours for method in ("component", "act")]
        for cls, method in targets:
            setattr(cls, method, self.wrap(
                getattr(cls, method),
                namer=lambda args, kwargs, method=method: f"{flavour(args[0])}.{method}",
            ))

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric the worker can see; run.py adds the rest."""
        from ringops import polynomials, terms

        caches = {
            "polynomials.compose.cache_hit_ratio": polynomials._compose_intpoly,
            "terms.cached_act.hit_ratio": terms._cached_act,
            "terms.cached_gamma.hit_ratio": terms._cached_gamma,
            "terms.bounded_fiber.hit_ratio": terms._bounded_fiber,
        }
        out: dict[str, float] = {}
        for metric in PER_LAYER:
            if metric in RUN_METRICS:
                continue
            span, _, kind = metric.rpartition(".")
            if metric in caches:
                info = caches[metric].cache_info()
                lookups = info.hits + info.misses
                out[metric] = info.hits / lookups if lookups else 0.0
            elif metric == "terms.fiber_terms":
                out[metric] = self.fiber_terms
            elif span in LAYERS:
                out[metric] = sum(self.corrected_self(entry) for name, entry in self.spans.items()
                                  if name.startswith(span + "."))
            else:
                entry = self.spans.get(span, [0, 0.0, 0.0, 0])
                out[metric] = entry[0] if kind == "calls" else self.corrected_self(entry)
        return out


# Functions whose presence anywhere on the stack marks fiber work.
FIBER_WORK = {"enumerate_fiber", "_bounded_fiber", "connectivity_check", "generator_moves"}


class Sampler:
    """Samples the stack every `interval` seconds of CPU time.

    Each sample goes to the innermost `ringops` function on the stack, as
    `<module>.<qualified name>` ("outside" when none is), and is also counted
    as fiber work when any FIBER_WORK function is on the stack.
    """

    def __init__(self, interval: float = 0.005):
        self.interval = interval
        self.innermost: Counter = Counter()
        self.fiber_work = 0
        self.total = 0
        self._codes: dict = {}  # code object -> (name or None, is fiber work)

    def _describe(self, code) -> tuple:
        path = Path(code.co_filename)
        if path.parent.name != "ringops" or path.stem not in LAYERS + ("wreath", "errors"):
            return None, False
        return f"{path.stem}.{code.co_qualname}", code.co_name in FIBER_WORK

    def _sample(self, signum, frame) -> None:
        self.total += 1
        innermost, fiber = None, False
        while frame is not None:
            code = frame.f_code
            described = self._codes.get(code)
            if described is None:
                described = self._codes[code] = self._describe(code)
            innermost = innermost or described[0]
            fiber = fiber or described[1]
            frame = frame.f_back
        self.innermost[innermost or "outside"] += 1
        self.fiber_work += fiber

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
