#!/usr/bin/env python3
"""Benchmark of the npassive toolkit, measured from outside the program.

    python3 bench/run.py --workload bound_sweep --seed 1 --seconds 20 --trace 0

Runs one workload (see bench/README.md) as a closed loop with one client,
timing whole decks of inputs for at least ``--seconds``, checks every output,
and prints one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the timed ops are shared by four fresh worker
processes run one after another, and the metrics are the end-to-end ones.
With ``--trace 1`` the same ops run untraced and then traced in this process,
and the metrics are per layer.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKERS = 4  # fresh processes that share the timed ops of an end-to-end run
# entropy errors below this are round-off and are reported as it; workloads
# without an inversion report it too
ERR_FLOOR = 1e-12
CAL_EVERY_NS = 50_000_000  # calibrate the host speed this often, between ops
CAL_REF_NS = 700_000  # calibration time on a quiet host; times are scaled to it
REGIMES = (
    "TwoLevelEquality", "Exponential", "Inverse", "MinOfBoth", "AsymptoticGeneral",
    "AsymptoticNonDegGround", "AsymptoticTwoLevel", "LowEntropy",
)


@dataclass(frozen=True)
class Raised:
    """An op that raised: its exception type and message."""

    type: str
    message: str


def load_program():
    """Import npassive from this checkout's src/ and the workload module."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import npassive

    if src not in Path(npassive.__file__).resolve().parents:
        raise ImportError(f"npassive imported from {npassive.__file__}, not {src}")
    import workloads

    return workloads


def run_op(wl, inp):
    try:
        return wl.op(inp)
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        return Raised(type(exc).__name__, str(exc))


def calibrate():
    """Time a fixed kernel that mixes what the ops do: bytecode, small tuples
    and dicts, and numpy calls on tiny arrays.  On this host it tracks the
    ops' slow-downs far better than a pure-Python loop does."""
    import numpy as np

    t = time.perf_counter_ns()
    x = 0
    for i in range(4000):
        x += i
    rows = [tuple(range(i % 7, i % 7 + 5)) for i in range(800)]
    index = {row: i for i, row in enumerate(rows)}
    a = np.arange(8.0)
    for _ in range(120):
        a = np.exp(np.log(a + 1.0) - 0.1)
    del index
    return time.perf_counter_ns() - t


def timed_phase(wl, seconds, inputs=None, tracer=None):
    """Run whole decks until ``seconds`` have passed (or replay ``inputs``).

    Returns inputs, outputs, per-op start times and latencies in ns, and the
    calibration samples (time, duration) taken between ops.  Deck generation
    and calibration sit outside every op's timed window.
    """
    ins, outs, starts, lat, cal = [], [], [], [], []
    start = time.perf_counter()
    while True:
        for inp in inputs if inputs is not None else wl.deck():
            now = time.perf_counter_ns()
            if not cal or now - cal[-1][0] > CAL_EVERY_NS:
                cal.append((now, calibrate()))
            if tracer is not None:
                tracer.op_index = len(outs)
                tracer.recording = True
            t0 = time.perf_counter_ns()
            out = run_op(wl, inp)
            t1 = time.perf_counter_ns()
            if tracer is not None:
                tracer.recording = False
            ins.append(inp)
            outs.append(out)
            starts.append(t0)
            lat.append(t1 - t0)
        if inputs is not None or time.perf_counter() - start >= seconds:
            cal.append((time.perf_counter_ns(), calibrate()))
            return ins, outs, starts, lat, cal


def scaled_ms(starts, lat, cal):
    """Latencies in ms at the reference host speed.

    Each op is scaled by CAL_REF_NS over the median of the two calibration
    samples before it and the two after it, so a host slow-down that lasts
    longer than an op cancels.
    """
    times = [t for t, _ in cal]
    out, k = [], 0
    for t0, ns in zip(starts, lat):
        while k < len(times) and times[k] <= t0:
            k += 1
        near = [d for _, d in cal[max(0, k - 2): k + 2]]
        out.append(ns * 1e-6 * CAL_REF_NS / statistics.median(near))
    return out


def evaluate(wl, workloads, ins, outs):
    """Run the output checks; tally failures per (case, check)."""
    table = Counter()
    failing = unexpected = out_of_class = 0
    errs = []
    for inp, out in zip(ins, outs):
        if isinstance(out, Raised):
            res = workloads.Outcome(failed=[f"exception:{out.type}"])
        else:
            res = wl.check(inp, out)
        label = wl.label(inp)
        for name in set(res.failed):
            table[(label, name)] += 1
        failing += bool(res.failed)
        unexpected += any((label, name) not in wl.known_defects for name in res.failed)
        errs.extend(res.entropy_errs)
        out_of_class += res.out_of_class
    return {
        "table": table,
        "failing": failing,
        "unexpected": unexpected,
        "entropy_err_max": max(errs, default=0.0),
        "out_of_class": out_of_class,
    }


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def host_loop_ms():
    """Median time of a fixed pure-Python loop: a host-speed diagnostic."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        x = 0
        for i in range(1_000_000):
            x += i
        times.append((time.perf_counter() - t) * 1e3)
    return statistics.median(times)


def git_commit():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def worker(args, wl, workloads, setup_s):
    """Timed ops in this process; prints the raw results for the parent."""
    ins, outs, starts, lat, cal = timed_phase(wl, args.seconds)
    ev = evaluate(wl, workloads, ins, outs)
    print(json.dumps({
        "setup_s": setup_s * CAL_REF_NS / statistics.median(d for _, d in cal[:3]),
        "ms": scaled_ms(starts, lat, cal),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failing": ev["failing"],
        "unexpected": ev["unexpected"],
        "table": [[label, name, n] for (label, name), n in ev["table"].items()],
        "entropy_err_max": ev["entropy_err_max"],
    }))


def spawn_workers(args, count):
    """Run the timed ops in ``count`` fresh processes, one after another."""
    parts = []
    for k in range(count):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", repr(args.seconds / count),
             "--trace", "0", "--worker", str(k)] + (["--tiny"] if args.tiny else []),
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"worker {k} exited with {proc.returncode}")
        parts.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return parts


def end_to_end(args):
    parts = spawn_workers(args, 2 if args.tiny else WORKERS)
    ms = [x for p in parts for x in p["ms"]]
    table = Counter()
    for p in parts:
        for label, name, n in p["table"]:
            table[(label, name)] += n
    failing = sum(p["failing"] for p in parts)
    setups = [p["setup_s"] for p in parts]
    metrics = {
        "ops_per_s": metric(len(ms) / (sum(ms) * 1e-3), "op/s"),
        "op_p50_ms": metric(statistics.median(ms), "ms"),
        "op_p90_ms": metric(nearest_rank(ms, 90), "ms"),
        "ok_ratio": metric(1.0 - failing / len(ms), "1"),
        "entropy_rel_err_max": metric(
            max(max(p["entropy_err_max"] for p in parts), ERR_FLOOR), "1"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(max(p["rss_mb"] for p in parts), "MB"),
    }
    ev = {"table": table, "unexpected": sum(p["unexpected"] for p in parts)}
    info = {"ops": len(ms), "setup_samples_s": setups}
    return len(ms), ev, metrics, info, 0


def per_layer(args, wl, workloads):
    from tracer import Tracer

    loop_ms = host_loop_ms()
    ins, plain, *timing = timed_phase(wl, args.seconds / 2)
    plain_ms = sum(scaled_ms(*timing))
    tracer = Tracer()
    tracer.install()
    try:
        _, traced, starts, lat, cal = timed_phase(wl, 0, inputs=ins, tracer=tracer)
    finally:
        tracer.uninstall()
    mismatches = sum(repr(a) != repr(b) for a, b in zip(plain, traced))
    ev = evaluate(wl, workloads, ins, traced)
    n, op_ns = len(lat), sum(lat)
    metrics = {
        name: metric(value, unit)
        for name, (value, unit) in tracer.layer_metrics(n, op_ns, REGIMES).items()
    }
    metrics["bounds.out_of_class"] = metric(ev["out_of_class"] / n, "1/op")
    metrics["trace.overhead_ratio"] = metric(sum(scaled_ms(starts, lat, cal)) / plain_ms - 1.0, "1")
    metrics["host.loop_ms"] = metric(loop_ms, "ms")
    info = {"ops": n, "mismatches": mismatches, "absent": tracer.absent}
    write_trace(args, tracer, metrics)
    return n, ev, metrics, info, mismatches


def write_trace(args, tracer, metrics):
    """Write the kept spans and the per-function times once the run is over."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    spans = [
        {"op": op, "depth": depth, "layer": layer, "name": name, "start_ns": t0, "end_ns": t1}
        for op, depth, layer, name, t0, t1 in tracer.spans
    ]
    (out / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
        "absent": tracer.absent,
        "function_ms": {k: v * 1e-6 for k, v in tracer.fn_ns.most_common()},
        "function_calls": dict(tracer.fn_calls),
        "metrics": metrics,
        "spans": spans,
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, default=None,
                        help="internal: run the timed ops of one worker process")
    parser.add_argument("--tiny", action="store_true",
                        help="6-op decks and two workers, for the self-test")
    args = parser.parse_args(argv)

    if args.trace == 0 and args.worker is None:
        try:
            n, ev, metrics, info, mismatches = end_to_end(args)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            workloads = load_program()
        except ImportError as exc:
            print(f"error: cannot import the program: {exc}", file=sys.stderr)
            return 2
        if args.workload not in workloads.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        workdir = ROOT / ".bench_work" / str(os.getpid())
        seed = [args.seed, args.worker or 0]
        wl = workloads.WORKLOADS[args.workload](seed, workdir, tiny=args.tiny)
        try:
            run_op(wl, wl.make_input(wl.shapes()[0]))  # warm-up
            setup_s = time.perf_counter() - _T0
            if args.worker is not None:
                worker(args, wl, workloads, setup_s)
                return 0
            n, ev, metrics, info, mismatches = per_layer(args, wl, workloads)
        finally:
            wl.close()
            try:
                workdir.parent.rmdir()
            except OSError:
                pass

    failed = ev["unexpected"] + mismatches
    checks = {f"{label}/{name}": count for (label, name), count in sorted(ev["table"].items())}
    print(json.dumps({"provenance": provenance(args), "info": info, "failed_checks": checks}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
