"""Run one benchmark workload once and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fn-circuits --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures the per-layer metrics through wrappers around
corelate's public functions (see tracing.py).  Human-readable lines come
first, raw seconds beside reference-speed ones; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The same object is written to perfbench/out/.

Times are reference-speed seconds: raw seconds times the reference
kernel's nominal time over its time measured around the work (see
refkernel.py).  Time spent on answer checks and on the kernel is excluded.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 11  # fresh interpreters timed for setup_s, after one warm-up
WINDOW_S = 0.02  # kernel samples this close to an operation scale its time
TAIL_BEYOND = 10  # op_tail_ms is the order statistic with this many above it
UNTRACED_ROUNDS = 3  # the traced run's overhead is over their per-op median


class Round:
    """Raw and reference-speed seconds of each operation of one round."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []


def per_op(rounds: list[Round], field: str) -> list[float]:
    """Each operation's median time over the rounds."""
    columns = zip(*(getattr(r, field) for r in rounds))
    return [statistics.median(c) for c in columns]


def summary(times: list[float]) -> tuple[float, float, float]:
    """(run seconds, median op ms, tail op ms) of per-operation seconds."""
    ordered = sorted(times)
    return sum(times), 1e3 * statistics.median(times), 1e3 * ordered[len(ordered) - 1 - TAIL_BEYOND]


class Tally:
    """Operations attempted, failed (raised) and answered wrongly."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0


def run_round(wl, ops, meter, tally: Tally, tracer=None) -> Round:
    """Run every operation once, checking each output as soon as it is
    timed.  Tracing, if any, is paused while an answer is checked."""
    spans = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = index
        stolen = meter.stolen
        t0 = time.perf_counter()
        try:
            out = wl.run_op(op)
            ok = True
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            ok = False
        t1 = time.perf_counter()
        spans.append((t0, t1, (t1 - t0) - (meter.stolen - stolen)))
        tally.attempted += 1
        if not ok:
            tally.failed += 1
            continue
        if tracer is not None:
            tracer.enabled = False
        try:
            right = wl.check_op(op, out)
        except Exception:  # an answer the checker cannot read is wrong
            traceback.print_exc(file=sys.stderr)
            right = False
        if not right:
            tally.wrong += 1
            print(f"wrong answer: {op.label}", file=sys.stderr)
        if tracer is not None:
            tracer.enabled = True
    rnd = Round()
    for t0, t1, raw in spans:
        rnd.raw.append(raw)
        rnd.scaled.append(raw * meter.factor(t0, t1, WINDOW_S))
    return rnd


def run_rounds(wl, ops, meter, tally, seconds: float, tracer=None) -> list[Round]:
    """Whole rounds, starting another while less than ``seconds`` have
    passed."""
    rounds: list[Round] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(wl, ops, meter, tally, tracer))
    return rounds


def setup_probe(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(probe["module"]).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"set-up probe imported corelate from {probe['module']}")
    return probe


def end_to_end(wl, ops, workload: str, seconds: float, meter, tally):
    setup_probe(workload)  # warm-up: compiles bytecode
    probes = [setup_probe(workload) for _ in range(SETUP_PROBES)]
    with meter:
        wl.setup()
        rounds = run_rounds(wl, ops, meter, tally, seconds)
    med = statistics.median
    run_s, p50, tail = summary(per_op(rounds, "scaled"))
    raw_run_s, raw_p50, raw_tail = summary(per_op(rounds, "raw"))
    metrics = {
        "setup_s": (med(p["scaled_s"] for p in probes), "s", med(p["raw_s"] for p in probes)),
        "run_s": (run_s, "s", raw_run_s),
        "op_p50_ms": (p50, "ms", raw_p50),
        "op_tail_ms": (tail, "ms", raw_tail),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", None),
    }
    n = len(ops)
    notes = [
        f"rounds={len(rounds)} ops_per_round={n} op_tail=p{100 * (n - TAIL_BEYOND) // n} "
        f"(the {n - TAIL_BEYOND}th of {n} per round) setup_probes={SETUP_PROBES}",
        "share of run_s: " + kind_shares(ops, per_op(rounds, "scaled")),
    ]
    return metrics, notes


def kind_shares(ops, times: list[float]) -> str:
    """Each operation kind's (theory's or check's) share of the round."""
    by_kind: dict[str, float] = {}
    for op, t in zip(ops, times):
        by_kind[op.kind] = by_kind.get(op.kind, 0.0) + t
    total = sum(times)
    return " ".join(f"{kind}={100 * t / total:.1f}%" for kind, t in sorted(by_kind.items()))


def traced(wl, ops, workload: str, seconds: float, meter, tally):
    import tracing

    with meter:
        wl.setup()
        untraced = [run_round(wl, ops, meter, tally) for _ in range(UNTRACED_ROUNDS)]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wl.setup()
            t_start = time.perf_counter()
            rounds = run_rounds(wl, ops, meter, tally, seconds, tracer)
            t_end = time.perf_counter()
        finally:
            tracer.uninstall()
    traced_s = summary(per_op(rounds, "scaled"))[0]
    untraced_s = summary(per_op(untraced, "scaled"))[0]
    overhead = traced_s / untraced_s
    factor = meter.factor(t_start, t_end, 0.0)
    layer = tracing.layer_metrics(tracer, len(rounds), factor, meter.stolen_between())
    layer["trace.overhead_ratio"] = (overhead, "ratio")
    metrics = {name: (value, unit, None) for name, (value, unit) in layer.items()}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}.bin"
    tracer.write(path)
    notes = [
        f"traced rounds={len(rounds)} spans={tracer.span_count()} written to {path.relative_to(ROOT)}",
        f"tracing overhead: traced round {traced_s:.4f} s over untraced round {untraced_s:.4f} s"
        f" (reference-speed; per-op medians of {len(rounds)} traced and {UNTRACED_ROUNDS} untraced rounds)",
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fn-circuits", "linear-circuits", "check-report"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "corelate" / "__init__.py").is_file():
        print(f"error: no corelate sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))

    import refkernel
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    ops = wl.make_ops(args.seed)
    meter = refkernel.SpeedMeter()
    tally = Tally()
    measure = traced if args.trace else end_to_end
    metrics, notes = measure(wl, ops, args.workload, args.seconds, meter, tally)
    if Path(sys.modules["corelate"].__file__).resolve().parent.parent != SRC.resolve():
        print("error: corelate was not imported from this checkout", file=sys.stderr)
        return 2

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit, raw) in metrics.items():
        beside = "" if raw is None else f"   (raw {raw:.6g} {unit})"
        print(f"  {name:34s} {value:14.6g} {unit}{beside}")
    print(f"  attempted={tally.attempted} failed={tally.failed} wrong={tally.wrong}")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
