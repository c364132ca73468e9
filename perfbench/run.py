"""Benchmark of the subfieldscan pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the library from
./src.  One caller runs the workload's operations one after another
(a closed loop: the next starts only when the previous returned), in
passes over the same generated inputs until --seconds have elapsed.  Every
answer is checked independently (checks.py) and every pass must give
byte-identical reports.

End-to-end times are reference seconds (speed.py): measured seconds
rescaled by a calibration kernel timed alongside, because the speed of a
shared host drifts by a third.  The raw seconds are printed too.

  wall_s        one pass: the sum of each operation's median time
  scan_p50_s    median over the operations of each one's median time
  scan_max_s    the slowest operation (by its median time)
  ok_share      1 - failed_share: answers that match the truth
  proven_share  1 - unproven_share: decided candidates not left unproven
  peak_rss_mb   peak resident memory of the run
  setup_s       a fresh import of the library plus the NumberField objects
                built before the first timed call: the median over
                SETUP_REPEATS of them, each rescaled by the set-up kernel
                run just before it

With --trace 1 the run makes one untraced and one traced pass, reports
the per-layer metrics of layers.py and writes the spans to perfbench/out/.
It then runs the traced pass again in a fresh process (a new import and
hash seed) and fails unless every count and report digest is the same.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
answer is right, 1 when one is wrong, 2 when the library is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
PACKAGE = "subfieldscan"
SETUP_REPEATS = 50
# a run must end within 180 s; the determinism gate's second traced pass
# gets what is left of this budget
RUN_LIMIT_S = 170

if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.checks import Verdict, check  # noqa: E402
from perfbench.speed import REFERENCE_SETUP_KERNEL_S, SpeedProbe, setup_kernel  # noqa: E402
from perfbench.trace import END, NAME, OP, PARENT, START, Tracer  # noqa: E402
from perfbench.workloads import ROOT_TEST, WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s", "scan_p50_s": "s", "scan_max_s": "s", "ok_share": "ratio",
    "proven_share": "ratio", "peak_rss_mb": "MB", "setup_s": "s",
}


def _library_dir() -> Path | None:
    src = ROOT / "src"
    return src if (src / PACKAGE / "__init__.py").is_file() else None


def _purge_library() -> None:
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def set_up(ops, probe: SpeedProbe, repeats: int = SETUP_REPEATS):
    """Import the library afresh and build the number fields the root tests
    need, `repeats` times; returns the last library, its fields and the
    median set-up time in reference and in raw seconds."""
    ref, raw = [], []
    for _ in range(repeats):
        _purge_library()
        k0 = probe.clock()
        setup_kernel()
        t0 = probe.clock()
        lib = importlib.import_module(PACKAGE)
        fields = {op.poly: lib.NumberField(lib.Poly(list(op.poly)))
                  for op in ops if op.kind == ROOT_TEST}
        raw.append(probe.elapsed(t0, probe.clock()))
        ref.append(raw[-1] * REFERENCE_SETUP_KERNEL_S / probe.elapsed(k0, t0))
    return lib, fields, statistics.median(ref), statistics.median(raw)


def make_calls(lib, ops, fields):
    """One zero-argument callable per operation; the inputs are built here,
    outside the timed region.  The library function is looked up at call
    time, so a traced pass calls the wrapper."""
    calls = []
    for op in ops:
        if op.kind == ROOT_TEST:
            field, h = fields[op.poly], lib.Poly([-op.truth[0], 0, 1])
            calls.append(lambda field=field, h=h: lib.find_root(
                field, h, lib.ScanConfig(), random.Random(0)))
        else:
            name = "quad_subfield_scan" if op.kind == "quad" else "cubic_subfield_scan"
            poly = lib.Poly(list(op.poly))
            calls.append(lambda name=name, poly=poly: getattr(lib, name)(poly))
    return calls


def digest(cli, result) -> str:
    if hasattr(result, "excluded"):
        data = cli.canonical_report_bytes(result)
    else:
        cert = result.certificate
        data = repr((result.status, tuple(cert.scaled_root) if cert else None)).encode()
    return hashlib.sha256(data).hexdigest()


class Pass:
    """One pass over the operations: times, verdicts and output digests."""

    def __init__(self):
        self.intervals: list[tuple] = []   # (start clock, end clock) per operation
        self.verdicts: list[Verdict] = []
        self.digests: list[str | None] = []
        self.results: list = []

    def raw(self, probe) -> list[float]:
        return [probe.elapsed(a, b) for a, b in self.intervals]

    def ref(self, probe) -> list[float]:
        return [probe.reference(a, b) for a, b in self.intervals]


def run_pass(ops, calls, cli, probe: SpeedProbe, tracer: Tracer | None = None) -> Pass:
    out = Pass()
    for index, (op, call) in enumerate(zip(ops, calls)):
        if tracer is not None:
            tracer.begin_op(index)
        t0 = probe.clock()
        try:
            result = call()
        except Exception:  # an operation that raises counts as failed
            out.intervals.append((t0, probe.clock()))
            traceback.print_exc(file=sys.stderr)
            out.verdicts.append(Verdict(False, f"{op.label}: raised", 0, 0))
            out.digests.append(None)
            out.results.append(None)
            continue
        out.intervals.append((t0, probe.clock()))
        out.verdicts.append(check(op, result))
        out.digests.append(digest(cli, result))
        out.results.append(result)
    return out


def traced_pass(ops, calls, cli, probe):
    """One pass with every layer wrapped; returns the tracer, the pass, the
    per-layer metrics (absent layers as 0) and the absent metrics."""
    tracer = Tracer(PACKAGE, clock=probe.busy_clock)
    layers.install(tracer)
    try:
        traced = run_pass(ops, calls, cli, probe, tracer)
    finally:
        tracer.uninstall()
    reports = {i: r for i, (op, r) in enumerate(zip(ops, traced.results))
               if op.kind != ROOT_TEST and r is not None}
    metrics = layers.per_layer_metrics(tracer, reports)
    metrics["trace.wall_s"] = sum(traced.ref(probe))
    absent = layers.absent_metrics(tracer.absent, reports)
    return tracer, traced, {k: (0 if k in absent else v) for k, v in metrics.items()}, absent


def gate_record(metrics: dict, traced: Pass) -> dict:
    """What must repeat exactly for the same seed: the per-layer counts and
    the digest of every report, as JSON would give them back."""
    counts = {k: v for k, v in metrics.items()
              if layers.PER_LAYER[k][0] in layers.DETERMINISTIC_UNITS}
    return json.loads(json.dumps({"counts": counts, "digests": traced.digests}))


def write_trace(path: Path, tracer: Tracer, ops, metrics, absent) -> None:
    t0 = tracer.spans[0][START] if tracer.spans else 0.0
    spans = [[rec[NAME], round(rec[START] - t0, 7), round(rec[END] - t0, 7), rec[PARENT], rec[OP]]
             for rec in tracer.spans]
    doc = {
        "span_fields": ["name", "start_s", "end_s", "parent", "op"],
        "ops": [op.label for op in ops],
        "self_s": tracer.self_times(),
        "metrics": metrics,
        "absent": absent,
        "spans": spans,
    }
    path.write_text(json.dumps(doc, separators=(",", ":")))


def determinism_gate(args, record: dict, deadline: float) -> str | None:
    """Run the traced pass again in a fresh process and compare its counts
    and report digests with this run's; returns a problem or None.  When
    the run's time budget is spent first, the gate says so and passes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1",
           "--gate-child"]
    budget = deadline - time.perf_counter()
    child = None
    if budget >= 1:
        try:
            child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=budget)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            pass
    if child is None:
        print(f"  determinism gate not run: the run's {RUN_LIMIT_S} s were spent before a "
              "second traced pass could finish")
        return None
    if child.returncode != 0 or not child.stdout.strip():
        sys.stderr.write(child.stderr)
        return f"the second traced pass exited with {child.returncode}"
    again = json.loads(child.stdout.strip().splitlines()[-1])
    if again != record:
        diff = sorted(k for k in record["counts"] if again["counts"].get(k) != record["counts"][k])
        return f"a second traced pass in a fresh process differs: {diff or 'report digests'}"
    print("  determinism gate: a second traced pass in a fresh process gave the same "
          f"{len(record['counts'])} counts and {len(record['digests'])} report digests")
    return None


def end_to_end(passes, verdicts, probe, setup_s) -> tuple[dict, str]:
    per_op = list(zip(*(p.ref(probe) for p in passes)))
    per_op_median = [statistics.median(ts) for ts in per_op]
    raw_median = [statistics.median(ts) for ts in zip(*(p.raw(probe) for p in passes))]
    failed = sum(1 for v in verdicts if not v.ok)
    decided = sum(v.decided for v in verdicts)
    unproven = sum(v.unproven for v in verdicts)
    values = {
        "wall_s": sum(per_op_median),
        "scan_p50_s": statistics.median(per_op_median),
        "scan_max_s": max(per_op_median),
        "ok_share": 1 - failed / len(verdicts),
        "proven_share": 1 - unproven / decided if decided else 1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    note = (f"  {len(per_op)} operations x {len(passes)} passes; raw wall {sum(raw_median):.4f} s; "
            f"failed_share {failed / len(verdicts):.4f}; unproven_share "
            f"{unproven / decided if decided else 0.0:.4f} of {decided} decided candidates")
    return values, note


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: print the determinism gate's record of one traced pass
    ap.add_argument("--gate-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    src = _library_dir()
    if src is None:
        print(f"error: no {PACKAGE} package under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workload = WORKLOADS[args.workload]
    ops = workload.generate(args.seed)
    probe = SpeedProbe()
    probe.start()
    try:
        lib, fields, setup_s, setup_raw = set_up(ops, probe,
                                                 1 if args.gate_child else SETUP_REPEATS)
        cli = importlib.import_module(PACKAGE + ".cli")
        calls = make_calls(lib, ops, fields)
        if args.gate_child:
            tracer, traced, values, absent = traced_pass(ops, calls, cli, probe)
            print(json.dumps(gate_record(values, traced)))
            return 0
        t_start = time.perf_counter()
        passes = [run_pass(ops, calls, cli, probe)]
        if args.trace:
            tracer, traced, values, absent = traced_pass(ops, calls, cli, probe)
            values["trace.overhead_s"] = values["trace.wall_s"] - sum(passes[0].ref(probe))
            passes.append(traced)
        else:
            while time.perf_counter() - t_start < args.seconds:
                passes.append(run_pass(ops, calls, cli, probe))
    finally:
        probe.stop()

    verdicts = [v for p in passes for v in p.verdicts]
    problems = [v.reason for v in verdicts if not v.ok]
    for p in passes[1:]:
        for op, first, later in zip(ops, passes[0].digests, p.digests):
            if first != later:
                problems.append(f"{op.label}: report differs between passes")

    print(f"workload {workload.name} (seed {args.seed}): {len(ops)} operations per pass, "
          f"{len(passes)} passes, one caller in a closed loop; set-up {setup_raw:.4f} s raw")
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        write_trace(OUT_DIR / f"{workload.name}-seed{args.seed}-trace.json",
                    tracer, ops, values, absent)
        if not problems:
            gate = determinism_gate(args, gate_record(values, traced), deadline)
            if gate:
                problems.append(gate)
        if absent:
            print(f"  absent layers, reported as 0: {', '.join(absent)}")
        print(f"  tracing overhead {values['trace.overhead_s']:+.4f} s on an untraced pass of "
              f"{sum(passes[0].ref(probe)):.4f} s (reference seconds)")
        out = {k: {"value": values[k], "unit": unit} for k, (unit, _) in layers.PER_LAYER.items()}
    else:
        values, note = end_to_end(passes, verdicts, probe, setup_s)
        print(note)
        out = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    for k, m in out.items():
        print(f"  {k} = {m['value']} {m['unit']}")
    for reason in problems:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(verdicts),
                      "failed": sum(1 for v in verdicts if not v.ok), "metrics": out}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
