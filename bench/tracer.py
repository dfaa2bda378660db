"""Outside-in tracer: wraps the functions of every ``npassive`` module at every
name that binds them, so a call is attributed to the module that defines the
function, whichever module made the call.

Self time of a span is its duration minus the time covered by its child
spans; it is accumulated online per layer.  Full span records are kept in
memory up to ``max_spans`` records and written out when the run ends.
The program under test is never edited: uninstalling restores every binding.
"""

from __future__ import annotations

import importlib
import inspect
import math
from collections import Counter
from time import perf_counter_ns

LAYERS = (
    "spectra",
    "passivity",
    "gibbs",
    "bounds",
    "flattening",
    "extremal",
    "commensurability",
    "cli",
)

# Private helpers that get a counter even though they are only called from
# inside their own module.  A later change may delete them; their counters
# are then reported as absent instead of failing the run.
COUNTED_PRIVATE = {
    "passivity": ("_scan_passive", "_scan_stable"),
    "extremal": ("_difference_vectors", "_entropy_on_chord"),
}

# (energies, N) keys of calls that enumerate occupation vectors; argument
# positions of the energies and the order.
ENUMERATING = {
    "_scan_passive": (0, 2),
    "_scan_stable": (0, 2),
    "_difference_vectors": (0, 1),
}


def lex_rank(counts) -> int:
    """Rank of a composition in the lexicographic order that
    ``spectra.compositions`` yields (first entry ascending from 0)."""
    rank, rem, parts = 0, sum(counts), len(counts)
    for c in counts[:-1]:
        parts -= 1
        for f in range(c):
            rank += math.comb(rem - f + parts - 1, parts - 1)
        rem -= c
    return rank


class Tracer:
    def __init__(self, max_spans: int = 20_000):
        self.max_spans = max_spans
        self.recording = False
        self.op_index = -1
        self.stack: list[list] = []
        self.self_ns = Counter()
        self.calls = Counter()
        self.fn_ns = Counter()  # inclusive time per function name
        self.fn_calls = Counter()
        self.counts = Counter()
        self.enum_keys: list = []
        self.witnesses: list = []
        self.spans: list = []
        self.absent: list[str] = []
        self.originals: dict = {}  # function name -> unwrapped function
        self._saved: list = []

    # -- installation -------------------------------------------------------

    def install(self):
        pkg = importlib.import_module("npassive")
        modules = {name: importlib.import_module(f"npassive.{name}") for name in LAYERS}
        wrappers = {}
        for home, mod in modules.items():
            for name in COUNTED_PRIVATE.get(home, ()):
                if not inspect.isfunction(getattr(mod, name, None)):
                    self.absent.append(f"{home}.{name}")
        for binder in (pkg, *modules.values()):
            for name, obj in list(vars(binder).items()):
                if not inspect.isfunction(obj) or not obj.__module__.startswith("npassive."):
                    continue
                home = obj.__module__.rsplit(".", 1)[1]
                private = name.startswith("_")
                crosses = binder is not modules.get(home)
                if private and not crosses and name not in COUNTED_PRIVATE.get(home, ()):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, home)
                    self.originals[name] = obj
                self._saved.append((binder, name, obj))
                setattr(binder, name, wrappers[id(obj)])

    def uninstall(self):
        for binder, name, obj in reversed(self._saved):
            setattr(binder, name, obj)
        self._saved.clear()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, layer):
        name = fn.__name__
        hook = getattr(self, "_after_" + name.lstrip("_"), None)
        enum = ENUMERATING.get(name)
        stack = self.stack
        tracer = self

        def enter():
            frame = [layer, name, 0, perf_counter_ns()]
            stack.append(frame)
            return frame

        def leave(frame):
            t1 = perf_counter_ns()
            stack.pop()
            dur = t1 - frame[3]
            tracer.self_ns[layer] += dur - frame[2]
            tracer.calls[layer] += 1
            tracer.fn_ns[name] += dur
            tracer.fn_calls[name] += 1
            if stack:
                stack[-1][2] += dur
            if len(tracer.spans) < tracer.max_spans:
                tracer.spans.append(
                    (tracer.op_index, len(stack), layer, name, frame[3], t1)
                )

        if inspect.isgeneratorfunction(fn):
            # Materialise the outermost call inside its span so the
            # enumeration is timed where it happens; recursive calls made
            # while it runs pass straight through.
            def wrapper(*args, **kwargs):
                if not tracer.recording or (stack and stack[-1][1] == name):
                    return fn(*args, **kwargs)
                frame = enter()
                try:
                    items = list(fn(*args, **kwargs))
                finally:
                    leave(frame)
                if name == "compositions":
                    tracer.counts["occupation_vectors"] += len(items)
                return iter(items)
        else:
            def wrapper(*args, **kwargs):
                if not tracer.recording:
                    return fn(*args, **kwargs)
                if enum is not None:
                    tracer.enum_keys.append((tuple(args[enum[0]]), args[enum[1]]))
                frame = enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(frame)
                if hook is not None:
                    hook(args, kwargs, result)
                return result

        wrapper.__name__ = name
        return wrapper

    def in_call(self, name: str) -> bool:
        return any(frame[1] == name for frame in self.stack)

    # -- per-function counters (run after the span closes) --------------------

    def _after_gibbs_point(self, args, kwargs, result):
        if self.in_call("solve_beta_for_entropy"):
            self.counts["gibbs.points_in_solve"] += 1

    def _after_solve_beta_for_entropy(self, args, kwargs, result):
        self.counts["gibbs.solves"] += 1
        s, target = args[0], args[1]
        if math.isinf(result) and target > math.log(s.d0):
            self.counts["gibbs.inf_returns"] += 1

    def _after_sample_n_passive(self, args, kwargs, result):
        bound = inspect.signature(self.originals["sample_n_passive"]).bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        self.counts["extremal.sampler_steps"] += a["burn_in"] + a["count"] * a["thin"]

    def _after_verify_level_passive(self, args, kwargs, result):
        self.counts["extremal.verify_calls"] += 1
        if not result:
            self.counts["extremal.verify_rejects"] += 1

    def _after_is_n_passive(self, args, kwargs, result):
        self.counts["passivity.verdicts"] += 1
        if not result.passive:
            self.witnesses.append(result.witness[0].counts)

    def _after_n_ergotropy(self, args, kwargs, result):
        s, N = args[0], args[2] if len(args) > 2 else kwargs["N"]
        self.enum_keys.append((tuple(s.energies), N))

    def _after_bound_report(self, args, kwargs, result):
        self.counts["bounds.regime." + result.regime] += 1

    # -- report ----------------------------------------------------------------

    def layer_metrics(self, ops: int, op_ns: int, regimes) -> dict:
        """Per-layer metrics over ``ops`` traced ops lasting ``op_ns`` in total."""
        m = {}
        per_op = 1.0 / ops
        for layer in LAYERS:
            m[f"{layer}.calls_per_op"] = (self.calls[layer] * per_op, "1/op")
            m[f"{layer}.self_ms_per_op"] = (self.self_ns[layer] * 1e-6 * per_op, "ms/op")
            m[f"{layer}.self_share"] = (self.self_ns[layer] / op_ns, "1")
        c = self.counts
        solves = c["gibbs.solves"]
        m["gibbs.point_evals_per_solve"] = (c["gibbs.points_in_solve"] / solves if solves else 0.0, "1")
        m["gibbs.inf_returns"] = (c["gibbs.inf_returns"], "count")
        steps = c["extremal.sampler_steps"]
        m["extremal.sampler_steps_per_op"] = (steps * per_op, "1/op")
        m["extremal.us_per_step"] = (self.fn_ns["sample_n_passive"] * 1e-3 / steps if steps else 0.0, "us")
        m["extremal.diffvec_builds_per_op"] = (self.fn_calls["_difference_vectors"] * per_op, "1/op")
        m["extremal.chord_evals_per_op"] = (self.fn_calls["_entropy_on_chord"] * per_op, "1/op")
        verifies = c["extremal.verify_calls"]
        m["extremal.verify_calls_per_op"] = (verifies * per_op, "1/op")
        m["extremal.verify_reject_ratio"] = (c["extremal.verify_rejects"] / verifies if verifies else 0.0, "1")
        vectors = c["occupation_vectors"]
        m["spectra.occupation_vectors_per_op"] = (vectors * per_op, "1/op")
        m["passivity.us_per_vector"] = (self.self_ns["passivity"] * 1e-3 / vectors if vectors else 0.0, "us")
        ranks = [lex_rank(w) for w in self.witnesses]
        m["passivity.witness_rank_mean"] = (sum(ranks) / len(ranks) if ranks else 0.0, "1")
        verdicts = c["passivity.verdicts"]
        m["passivity.nonpassive_ratio"] = (len(self.witnesses) / verdicts if verdicts else 0.0, "1")
        seen, repeats = set(), 0
        for key in self.enum_keys:
            repeats += key in seen
            seen.add(key)
        m["passivity.repeat_share"] = (repeats / len(self.enum_keys) if self.enum_keys else 0.0, "1")
        for regime in regimes:
            m[f"bounds.regime.{regime}"] = (c["bounds.regime." + regime] * per_op, "1/op")
        m["cli.parser_ms_per_op"] = (self.fn_ns["build_parser"] * 1e-6 * per_op, "ms/op")
        return m
