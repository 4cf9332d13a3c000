"""orthocal benchmark: one closed-loop workload per run.

Run from the root of a checkout; the package is imported from ``src/``::

    python3 bench/run.py --workload mc_table3 --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``mc_table3``, ``calibrate_stream`` and
``cli_cold``.  Every run first passes the correctness gate (``gate.py``).
With ``--trace 0`` every operation runs once by ``orthocal`` and once by the
frozen yardstick copy on the same input (``yardstick.py``), and the result
holds the end-to-end metrics, timings scaled by the ratio of the two.  With
``--trace 1`` every operation runs untraced and then traced on the same input,
the result holds the per-layer metrics and the spans are written to
``.bench_out/``.  The last line of standard output is the result object;
the line before it holds the machine fingerprint and run details.  The exit
code is 0 when every output was correct, 1 when one was not and 2 when the
run could not start.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

from fingerprint import BLAS_ENV, fingerprint

OUT_DIR = ".bench_out"
SETUP_SAMPLES = 5  # pairs of set-ups per run; setup_s is from their ratios
FLOOR_SAMPLES = 5
IMPORT_SAMPLES = 3
WORKLOAD_NAMES = ("mc_table3", "calibrate_stream", "cli_cold")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    p.add_argument("--yardstick", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def setup_workload(name: str, seed: int, workdir: str, yardstick: bool = False):
    """Import, geometry, warm-up and temporary files: the timed set-up."""
    t0 = time.perf_counter()
    if yardstick:
        from yardstick import load

        pkg = load()
    else:
        import orthocal as pkg
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, workdir, pkg)
    wl.setup()
    return wl, time.perf_counter() - t0


def setup_probe(args, workdir: str, yardstick: bool) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    os.makedirs(workdir, exist_ok=True)
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe", workdir]
    if yardstick:
        argv.append("--yardstick")
    out = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True, timeout=60).stdout
    return float(out.split()[-1])


def measure(wl, seconds: float, tracer=None, ref=None) -> dict:
    """Closed loop, one client: operation i+1 starts when operation i returns,
    for ``seconds`` and at least one operation.  Each output is checked
    outside the timed region as soon as it returns.

    With a tracer each input runs twice in a row, untraced and then traced
    under a root span, so that drift in the machine's speed falls on both
    alike, and the two outputs must be equal.  With ``ref``, the yardstick's
    twin of ``wl``, each input also runs on the yardstick, before or after
    the package in turn."""
    import orthocal

    latencies, items, failures, problems = [], 0, Counter(), []
    ref_latencies, ref_items, classes = [], 0, []
    busy = traced_busy = 0.0
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        job = wl.job(i)
        classes.append(wl.job_class(job))
        i += 1
        if ref is not None and i % 2:
            ref_items += _run_ref(ref, job, ref_latencies, problems)
        out, elapsed = _timed(wl, job)
        busy += elapsed
        if ref is not None and not i % 2:
            ref_items += _run_ref(ref, job, ref_latencies, problems)
        if tracer is not None:
            wl.traced = True
            tracer.install(orthocal)
            with tracer.span("op"):
                traced_out, traced_elapsed = _timed(wl, job)
            tracer.uninstall()
            wl.traced = False
            traced_busy += traced_elapsed
            if not _same(wl, out, traced_out):
                problems.append(f"traced output differs from untraced for input {job!r}")
        if isinstance(out, Exception):
            failures[type(out).__name__] += 1
            if not isinstance(out, wl.known_failures):
                problems.append(f"unexpected {type(out).__name__}: {out}")
            latencies.append(math.inf)
            continue
        problem = wl.check(job, out)
        if problem:
            failures["wrong-output"] += 1
            problems.append(problem)
            latencies.append(math.inf)
            continue
        latencies.append(elapsed)
        items += wl.items(out)
    problems += wl.check_all()
    return {"latencies": latencies, "items": items, "failures": failures,
            "problems": problems, "busy_s": busy, "traced_busy_s": traced_busy,
            "ref_latencies": ref_latencies, "ref_items": ref_items, "classes": classes}


def _run_ref(ref, job, latencies, problems) -> int:
    """Run ``job`` on the yardstick; returns the items it completed."""
    out, elapsed = _timed(ref, job)
    latencies.append(elapsed)
    if isinstance(out, Exception):
        problems.append(f"yardstick raised {type(out).__name__} on input {job!r}")
        return 0
    return ref.items(out)


def _timed(wl, job):
    t0 = time.perf_counter()
    try:
        out = wl.run(job)
    except Exception as exc:  # counted as a failed operation, by class
        out = exc
    return out, time.perf_counter() - t0


def _same(wl, a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b)
    return wl.same(a, b)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; a failed operation (inf) counts as
    slower than any completed one."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    if math.isinf(v[hi]):
        return math.inf
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def python_floor_ms() -> float:
    """Median wall time of a bare ``python -c pass``."""
    samples = []
    for _ in range(FLOOR_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        samples.append(1000 * (time.perf_counter() - t0))
    return statistics.median(samples)


def import_ms() -> tuple[float, float]:
    """Median cumulative import times of numpy and of orthocal on top of it,
    from ``-X importtime``."""
    import orthocal
    from workloads import cli_env

    numpy_ms, orthocal_ms = [], []
    for _ in range(IMPORT_SAMPLES):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import numpy, orthocal"],
            check=True, stderr=subprocess.PIPE, text=True, env=cli_env(orthocal), timeout=60,
        ).stderr
        cumulative = {}
        for line in err.splitlines():
            parts = line.split("|")
            # top-level entries only: nested imports are indented further
            if len(parts) == 3 and parts[1].strip().isdigit() and not parts[2].startswith("  "):
                cumulative[parts[2].strip()] = int(parts[1]) / 1000.0
        numpy_ms.append(cumulative["numpy"])
        orthocal_ms.append(cumulative["orthocal"])
    return statistics.median(numpy_ms), statistics.median(orthocal_ms)


def trimmed_mean(values, cut: float = 0.25) -> float:
    """Mean without the lowest and highest ``cut`` share of the values."""
    v = sorted(values)
    k = int(len(v) * cut)
    return statistics.fmean(v[k:len(v) - k])


def speed_corrected(res) -> tuple[list, list]:
    """Each operation's latency at the run's typical machine speed.

    An operation's package time t and yardstick time b on the same input see
    the same machine speed, so t / b does not drift.  Per class of operation
    (``Workload.job_class``) the run gives the package's ratio to the
    yardstick, the mean of the middle half of t / b, and the yardstick's
    typical time m, the median of b.  An operation's latency at the run's typical
    speed is then ratio * m of its class; a failed one's is infinite.
    Returns those latencies and the m of each operation."""
    ref, ratios = {}, {}
    for job_class, t, b in zip(res["classes"], res["latencies"], res["ref_latencies"]):
        ref.setdefault(job_class, []).append(b)
        if not math.isinf(t):
            ratios.setdefault(job_class, []).append(t / b)
    typical = {job_class: statistics.median(v) for job_class, v in ref.items()}
    ratio = {job_class: trimmed_mean(v) for job_class, v in ratios.items()}
    m = [typical[job_class] for job_class in res["classes"]]
    n = [math.inf if math.isinf(t) else ratio[job_class] * typical[job_class]
         for job_class, t in zip(res["classes"], res["latencies"])]
    return n, m


def end_to_end(args, wl, workdir):
    from gate import run_gate
    from yardstick import NOMINAL, load

    setups, ref_setups = [], []
    for k in range(SETUP_SAMPLES):  # pairs, alternating which package goes first
        for yardstick in (k % 2 == 1, k % 2 == 0):
            seconds = setup_probe(args, os.path.join(workdir, f"probe{k}-{yardstick:d}"), yardstick)
            (ref_setups if yardstick else setups).append(seconds)
    wl.run(wl.job(0))  # peak memory of set-up and one operation, before the gate
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems = run_gate()
    res = measure(wl, args.seconds, ref=wl.twin(load()))
    problems += res["problems"]
    if args.workload == "cli_cold":
        rss_kib = wl.peak_rss_kib  # the command's own processes
    attempted = len(res["latencies"])
    failed = sum(res["failures"].values())
    run_ms = 1000 * args.seconds  # a percentile that lands on a failure
    nominal = NOMINAL[args.workload]
    n, m = speed_corrected(res)

    def latency_ms(q):
        v = percentile(n, q)
        return run_ms if math.isinf(v) else nominal[f"p{round(100 * q)}_ms"] * v / percentile(m, q)

    completed = [(nb, mb) for nb, mb in zip(n, m) if not math.isinf(nb)]
    items_ratio = res["items"] / res["ref_items"] if res["ref_items"] else 0.0
    time_ratio = sum(mb for _, mb in completed) / sum(nb for nb, _ in completed) if completed else 0.0
    metrics = {
        "setup_s": (nominal["setup_s"] * statistics.median(
            t / b for t, b in zip(setups, ref_setups)), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "p50_ms": (latency_ms(0.5), "ms"),
        "p90_ms": (latency_ms(0.9), "ms"),
        "items_per_s": (nominal["items_per_s"] * items_ratio * time_ratio, "1/s"),
    }
    # wall-clock figures of both packages, as measured
    raw = {
        "p50_ms": 1000 * percentile(res["latencies"], 0.5),
        "p90_ms": 1000 * percentile(res["latencies"], 0.9),
        "items_per_s": res["items"] / res["busy_s"],
        "ref_p50_ms": 1000 * percentile(res["ref_latencies"], 0.5),
        "ref_p90_ms": 1000 * percentile(res["ref_latencies"], 0.9),
        "ref_items_per_s": res["ref_items"] / sum(res["ref_latencies"]),
        # the yardstick at the run's typical speed, against which it is scaled
        "ref_typical_p50_ms": 1000 * percentile(m, 0.5),
        "ref_typical_p90_ms": 1000 * percentile(m, 0.9),
        "ref_typical_items_per_s": res["ref_items"] / sum(m),
    }
    details = {"raw": raw, "setup_samples_s": setups, "ref_setup_samples_s": ref_setups,
               "busy_s": res["busy_s"], "items": res["items"],
               "failures_by_class": dict(res["failures"])}
    return attempted, failed, metrics, problems, details


def per_layer(args, wl):
    import orthocal
    from gate import run_gate
    from spans import LAYERS, Tracer, merge, summarize

    tracer = Tracer()
    tracer.install(orthocal)
    problems = run_gate()  # the same gate, traced: tracing must change no result
    wrapped = tracer.uninstall()
    tracer.reset()
    res = measure(wl, args.seconds, tracer)
    problems += res["problems"]

    totals = summarize(tracer.spans)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    tracer.dump(spans_path, 0)
    child_path = getattr(wl, "child_spans", None)
    if child_path and os.path.exists(child_path):
        by_proc: dict = {}
        with open(child_path, encoding="utf-8") as fh, open(spans_path, "a", encoding="utf-8") as out:
            for line in fh:
                rec = json.loads(line)
                by_proc.setdefault(rec[0], []).append(rec[1:])
                out.write(line)
        for spans in by_proc.values():
            totals = merge(totals, summarize(spans))

    n = len(res["latencies"])
    metrics = {}
    for layer in LAYERS:
        t = totals[layer]
        metrics[f"{layer}.self_ms"] = (t["self_ns"] / 1e6 / n, "ms/op")
        metrics[f"{layer}.calls"] = (t["calls"] / n, "1/op")
        metrics[f"{layer}.rows"] = (t["rows"] / n, "1/op")
        metrics[f"{layer}.errors"] = (t["errors"] / n, "1/op")
    kin = totals["kinematics"]
    metrics["kinematics.rows_per_call"] = (kin["rows"] / kin["calls"] if kin["calls"] else 0.0, "count")
    runs = totals["model_runs"]
    metrics["identification.model_rows_per_run"] = (totals["model_rows"] / runs if runs else 0.0, "count")
    numpy_ms, orthocal_ms = import_ms()
    metrics["import.numpy_ms"] = (numpy_ms, "ms")
    metrics["import.orthocal_ms"] = (orthocal_ms, "ms")
    metrics["process.python_floor_ms"] = (python_floor_ms(), "ms")
    metrics["trace.overhead_pct"] = (100.0 * (res["traced_busy_s"] / res["busy_s"] - 1.0), "%")
    details = {"busy_untraced_s": res["busy_s"], "busy_traced_s": res["traced_busy_s"],
               "wrapped_references": wrapped, "spans_file": spans_path,
               "failures_by_class": dict(res["failures"])}
    return n, sum(res["failures"].values()), metrics, problems, details


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "orthocal", "__init__.py")):
        print(f"error: no orthocal package under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    for key in BLAS_ENV:  # one BLAS thread unless the caller chose otherwise
        os.environ.setdefault(key, "1")
    sys.path.insert(1, src)

    if args.setup_probe:
        _, seconds = setup_workload(args.workload, args.seed, args.setup_probe, args.yardstick)
        print(repr(seconds))
        return 0

    workdir = os.path.join(root, OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl, _ = setup_workload(args.workload, args.seed, workdir)
        import orthocal

        if not os.path.abspath(orthocal.__file__).startswith(src + os.sep):
            print(f"error: orthocal imported from {orthocal.__file__}, not {src}", file=sys.stderr)
            return 2
        if args.trace:
            attempted, failed, metrics, problems, details = per_layer(args, wl)
        else:
            attempted, failed, metrics, problems, details = end_to_end(args, wl, workdir)
        probe = wl.domain_probe()
        if probe is not None:
            details["domain_probe_failures_by_class"], probe_problems = probe
            problems += probe_problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, attempted=attempted, problems=problems[:20],
                   run_s=time.perf_counter() - t_start)
    print(json.dumps({"fingerprint": fingerprint(root), "details": details}))
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
