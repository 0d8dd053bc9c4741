"""frontcalc benchmark: one workload, one seed, one closed-loop client.

Run from the root of a source checkout:

    python3 bench/run.py --workload {isotopy,filling,rulings_wide} \\
        --seed N --seconds S --trace {0,1}

The benchmark imports frontcalc from ``src/`` of the checkout, sets the
workload up several times (import, catalog check, input generation,
input files, warm-up) and reports the median set-up time.  It then runs
whole rounds of the workload's operations, one at a time, for about
``--seconds`` (to the nearest round boundary), checking every answer
(see workloads.py).

Before the first operation, after every operation, around every set-up,
and every ``PROBE_INTERVAL_S`` within an operation or a set-up, it times
a fixed stdlib-only reference kernel (``reference``) that does not touch
frontcalc.  On a shared cloud VM (2 vCPUs of an Intel Xeon host) the
interpreter's speed swings by up to 1.7x within seconds and by 15% from
one minute to the next, so that raw wall times of runs of the same code
spread by 15-25%.  Every end-to-end time is therefore reported
host-normalised: each operation's latency (and each set-up time) is
multiplied by ``REF_NOMINAL_S`` over the mean of the reference times
taken just before, during and just after it, i.e. converted to a host
on which the kernel takes ``REF_NOMINAL_S``.  The run header also gives
the raw wall-time figures.  A change to frontcalc moves the normalised
figures as much as the raw ones; a change of host speed moves only the
raw ones.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
it runs the rounds untraced for half the time, then replays the same
operations with spans recorded around every layer's public functions
(see tracing.py), and reports the per-layer metrics of the traced part
and the tracing overhead.  Spans are written to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give a run header, every metric by name with its unit and direction,
and any failed operations.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import tracing    # noqa: E402  (bench/ is put on the path above)
import workloads  # noqa: E402

MODULES = ("diagrams", "moves", "rulings", "cobordism", "satellites",
           "render", "catalog", "cli")
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# Time of one reference() call on the host the figures are scaled to: a
# round figure within its range of means (1.6-2.7 ms) on the VM above.
REF_NOMINAL_S = 0.0025
# reference() calls timed before and after each set-up.
REF_AROUND_SETUP = 10
# During an op or a set-up, reference() is also timed at this interval
# (about 1% of the time): the host's speed stays put for about half a
# second, so a long op needs samples from within it.
PROBE_INTERVAL_S = 0.2

# name -> (unit, better)
END_TO_END = {
    "ops_per_s": ("ops/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "decided_share": ("ratio", "higher"),
}
# Reported in the text lines only: it is 0 on a healthy workload, and
# the result line carries it as failed / attempted.
FAIL_SHARE = ("fail_share", "ratio", "lower")


_REF_WORD = [((i * 7919) % 8, (i * 104729) % 3) for i in range(400)]


def reference():
    """A fixed pure-Python kernel (tuples, lists, dicts) like the
    interpreter work frontcalc does; returns its wall time in seconds.

    It runs with the collector off, so that its time does not depend on
    the heap frontcalc leaves behind: it must measure the host only."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    word = _REF_WORD
    for _ in range(12):
        counts = {}
        out = []
        for i, (a, b) in enumerate(word):
            key = (a, b, i & 7)
            counts[key] = counts.get(key, 0) + 1
            out.append((b, a) if a > b else (a, b))
        word = out[1:] + out[:1]
    took = perf_counter() - start
    if enabled:
        gc.enable()
    return took


class HostProbe:
    """While active (``with probe:``), times reference() every
    PROBE_INTERVAL_S from a SIGALRM handler.  ``samples`` holds the
    times and ``spent`` their total, for the caller to take out of what
    it measured."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, _signum, _frame):
        start = perf_counter()
        self.samples.append(reference())
        self.spent += perf_counter() - start

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)


def import_frontcalc():
    """A fresh import of every frontcalc module from the checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "frontcalc" or n.startswith("frontcalc.")]:
        del sys.modules[name]
    fc = SimpleNamespace(**{m: importlib.import_module(f"frontcalc.{m}")
                      for m in MODULES})
    where = Path(fc.diagrams.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"frontcalc imported from {where}, not from {SRC}")
    return fc


def set_up(name, seed, workdir, probe):
    """Import frontcalc and build the workload; (fc, workload, seconds,
    mean reference time around and during the set-up)."""
    refs = [reference() for _ in range(REF_AROUND_SETUP)]
    start = perf_counter()
    with probe:
        fc = import_frontcalc()
        workloads.check_catalog(fc)
        wl = workloads.PREPARE[name](fc, seed, workdir)
        wl.run(wl.warm_up)
    took = perf_counter() - start - probe.spent
    refs += probe.samples
    refs += [reference() for _ in range(REF_AROUND_SETUP)]
    return fc, wl, took, statistics.mean(refs)


def measure(wl, seconds, probe, limit=None, tracer=None):
    """Run whole rounds (or exactly ``limit`` ops), one op at a time.

    Without a limit the run stops at the round boundary nearest to
    ``seconds``, judged by the mean round time so far; it runs at least
    one round.

    One reference() call precedes the first op and follows every op,
    and ``probe`` times more during the op; none of them counts in the
    op's latency.

    Returns (records, elapsed, refs); a record is (op, latency_s,
    status, decided, detail) where status is "ok", "wrong" or an
    exception class name, and refs[i] is the mean reference time around
    and during op i.
    """
    run = wl.run if tracer is None else tracer.wrap(tracing.OP, wl.run)
    records = []
    refs = []
    before = reference()
    start = perf_counter()
    i = 0
    while True:
        if limit is not None:
            if i == limit:
                break
        elif i and i % wl.round_len == 0:
            elapsed = perf_counter() - start
            if elapsed * (1 + wl.round_len / i / 2) >= seconds:
                break
        op = wl.ops[i % len(wl.ops)]
        if tracer is not None:
            tracer.op = i
        status, decided, detail = "ok", False, ""
        t0 = perf_counter()
        with probe:
            try:
                decided = run(op)
            except workloads.WrongAnswer as exc:
                status, detail = "wrong", str(exc)
            except Exception as exc:   # a failed op counts; the run goes on
                status, detail = type(exc).__name__, str(exc)[:200]
        latency = perf_counter() - t0 - probe.spent
        after = reference()
        refs.append(statistics.mean([before, *probe.samples, after]))
        records.append((op, latency, status, decided, detail))
        before = after
        i += 1
    return records, perf_counter() - start, refs


def tail(latencies):
    """(percentile, value, samples beyond) for the highest whole
    percentile that leaves at least TAIL_BEYOND samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)               # nearest rank, 1-based
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1], n - rank
    return 100, xs[-1], 0


def is_correct(records):
    """No wrong answer, and no exception other than a known defect."""
    for op, _lat, status, _decided, _detail in records:
        if status == "wrong":
            return False
        if status != "ok" and not (op.known_defect is not None
                                   and status == op.known_defect.__name__):
            return False
    return True


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def emit(obj):
    print(json.dumps(obj, sort_keys=False), flush=True)


def report_failures(records):
    failed = [r for r in records if r[2] != "ok"]
    by_status = {}
    for op, _lat, status, _decided, _detail in failed:
        by_status[status] = by_status.get(status, 0) + 1
    for status, n in sorted(by_status.items()):
        print(f"failed ops: {n} x {status}")
    for op, _lat, status, _decided, detail in failed[:5]:
        print(f"  {op.kind}: {status}: {detail}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.PREPARE))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not SRC.is_dir():
        print(f"error: no frontcalc sources at {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    probe = HostProbe()
    try:
        setups, setup_refs = [], []
        for _ in range(SETUP_REPEATS):
            fc, wl, took, ref = set_up(args.workload, args.seed, workdir,
                                       probe)
            setups.append(took)
            setup_refs.append(ref)

        if args.trace:
            base, base_s, refs = measure(wl, args.seconds / 2, probe)
            tracer = tracing.Tracer()
            tracer.install(fc)
            records, traced_s, _ = measure(wl, None, probe,
                                           limit=len(base), tracer=tracer)
            overhead = 1 - (sum(r[1] for r in base)
                            / sum(r[1] for r in records))
            metrics = tracing.layer_metrics(tracer.spans, overhead)
            units = tracing.LAYER_METRICS
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
            tracer.write(spans_path)
            all_records = base + records
            elapsed = base_s + traced_s
        else:
            records, elapsed, refs = measure(wl, args.seconds, probe)
            all_records = records
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = [r[1] for r in records]
    n = len(records)
    n_failed = sum(1 for r in records if r[2] != "ok")
    pct, raw_tail_s, beyond = tail(latencies)
    header = {
        "benchmark": "frontcalc",
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds_requested": args.seconds,
        "seconds_measured": elapsed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "input_digest": wl.digest,
        "rounds": n / wl.round_len,
        "ops": n,
        "setup_runs_s": setups,
        "setup_ref_mean_s": setup_refs,
        "ref_nominal_s": REF_NOMINAL_S,
        "ref_mean_s": statistics.mean(refs),
        "tail_percentile": pct,
        "tail_samples": n,
        "tail_samples_beyond": beyond,
        "metrics": {name: {"unit": u, "better": b}
                    for name, (u, b) in (tracing.LAYER_METRICS if args.trace
                                         else END_TO_END).items()},
    }
    if args.trace:
        header["spans"] = str(spans_path.relative_to(ROOT))
        header["span_count"] = len(tracer.spans)
    else:
        # Latencies on the nominal host (see the module docstring).
        scaled = [lat * REF_NOMINAL_S / ref
                  for lat, ref in zip(latencies, refs)]
        setup_scaled = [took * REF_NOMINAL_S / ref
                        for took, ref in zip(setups, setup_refs)]
        header["raw_wall_time"] = {
            "ops_per_s": n / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": raw_tail_s * 1e3,
            "setup_s": statistics.median(setups),
        }
        metrics = {
            "ops_per_s": n / sum(scaled),
            "op_p50_ms": statistics.median(scaled) * 1e3,
            "op_tail_ms": tail(scaled)[1] * 1e3,
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "decided_share": sum(1 for r in records if r[3]) / n,
        }
        units = END_TO_END
        header["metrics"][FAIL_SHARE[0]] = {"unit": FAIL_SHARE[1],
                                            "better": FAIL_SHARE[2]}
    emit(header)
    print(f"input digest {wl.digest}; {n} ops in {n / wl.round_len:g} rounds"
          f"; tail is p{pct} with {beyond} of {n} samples beyond it")
    if not args.trace:
        print(f"mean reference time {statistics.mean(refs) * 1e3:.3f} ms; "
              f"times below are scaled to {REF_NOMINAL_S * 1e3:g} ms")
    for name, value in metrics.items():
        unit, better = units[name]
        print(f"{name} = {value!r} {unit} ({better} is better)")
    if not args.trace:
        print(f"{FAIL_SHARE[0]} = {n_failed / n!r} {FAIL_SHARE[1]} "
              f"({FAIL_SHARE[2]} is better)")
    report_failures(all_records)
    emit({
        "correct": is_correct(all_records),
        "attempted": len(all_records),
        "failed": sum(1 for r in all_records if r[2] != "ok"),
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
