"""fullerkit benchmark: one workload per process, end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grow --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with no
tracing.  Every time it reports is scaled to a reference machine speed by
``perfbench/calibrate.py``, which gauges the speed of the core all through
each timed interval; the raw seconds and the scale factors are recorded on
the provenance line.  ``--trace 1`` alternates untraced and traced passes and reports its
per-layer metrics, including the tracing overhead; ``perfbench/layers.json``
records which end-to-end metric each one should move.  The package is
imported from ``src/`` of the same checkout; nothing is installed.

The last line of standard output is the JSON result; the line before it
records the seed, interpreter, core count, commit, corpus and samples.  The
exit code is 0 when every check passed, 1 when one failed and 2 when the
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, NamedTuple

from calibrate import Gauge
from tracer import Tracer, largest_self, ratio, span_value

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3          # set-ups per run: this process plus two children
WORKLOADS = ("grow", "oracle", "analyze", "surgery")


class Pass(NamedTuple):
    scaled_s: float     # seconds at the reference speed
    raw_s: float        # wall seconds, less the gauge's kernel runs
    factor: float       # reference speed over the speed measured
    latencies: List[float]  # seconds per item at the reference speed
    result: object      # the workload's PassResult


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child(args, workload: str, *extra: str, timeout: float = 150):
    """Run this script for one workload in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, *extra]
    return subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=timeout)


def child_setup_seconds(args) -> float:
    """Time one set-up in a fresh interpreter, imports included."""
    out = child(args, args.workload, "--setup-only")
    out.check_returncode()
    return float(out.stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    """Every workload in its own interpreter; one table of every metric."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        out = child(args, workload, timeout=900)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode not in (0, 1) or len(lines) < 2:
            return out.returncode or 1
        info, res = json.loads(lines[-2]), json.loads(lines[-1])
        correct = correct and res["correct"] and out.returncode == 0
        attempted += res["attempted"]
        failed += res["failed"]
        res["metrics"]["error_rate"] = {"value": info["error_rate"],
                                        "unit": "ratio"}
        for name, m in res["metrics"].items():
            print("%-8s %-36s %16.6g %s" % (workload, name, m["value"],
                                             m["unit"]))
            metrics["%s.%s" % (workload, name)] = m
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_passes(run_pass, st, seconds: float, gauge: Gauge, traced=None):
    """Passes until ``seconds`` have elapsed, at least one of each kind.

    With a tracer, untraced and traced passes alternate; the tracer is
    installed only for the traced ones.  Span times are scaled by the
    factor of their pass.
    """
    plain, spans_per_pass, traced_passes = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        with gauge:
            res = run_pass(st, nullcontext, gauge.clock)
        plain.append(Pass(gauge.scaled_s, gauge.raw_s, gauge.factor,
                          [gauge.scale(*t) for t in res.item_times], res))
        if traced is not None:
            traced.install()
            try:
                with gauge:
                    res = run_pass(st, traced.recording, gauge.clock)
            finally:
                traced.remove()
            traced_passes.append(Pass(gauge.scaled_s, gauge.raw_s,
                                      gauge.factor, [], res))
            spans_per_pass.append(traced.take(gauge.factor))
        if time.perf_counter() >= deadline:
            return plain, traced_passes, spans_per_pass


def end_to_end(plain: List[Pass], setups: List[float]) -> Dict[str, float]:
    times = [p.scaled_s for p in plain]
    done = sum(p.result.items - p.result.failed for p in plain)
    lat = [x for p in plain for x in p.latencies]
    if not lat:     # grow, oracle: one sample per pass, time per isomer
        lat = [p.scaled_s / max(1, p.result.items) for p in plain]
    return {
        "wall_s": statistics.median(times),
        "items_per_s": done / sum(times),
        "item_p50_ms": 1000 * statistics.median(lat),
        "item_p90_ms": 1000 * percentile(lat, 0.9),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(names: List[str], spans: Dict[str, dict],
                  setup_spans: Dict[str, dict], counts: Dict[str, int],
                  overhead_s: float) -> Dict[str, float]:
    children = span_value(spans, "growth.apply_rule", "calls")
    special = {
        "trace.overhead_s": overhead_s,
        "growth.children": children,
        "growth.novel": counts.get("growth.novel", 0),
        "growth.novel_ratio": ratio(counts.get("growth.novel", 0), children),
        "rulefile.parse_file.total_s":
            span_value(setup_spans, "rulefile.parse_file", "total_s"),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
            continue
        span, field = name.rsplit(".", 1)
        calls = span_value(spans, span, "calls")
        if field == "hit_ratio":
            out[name] = ratio(span_value(spans, span, "hits"), calls)
        elif field == "yield_ratio":
            out[name] = ratio(span_value(spans, span, "closed"), calls)
        elif field == "failed":
            out[name] = span_value(spans, span, "errors")
        else:
            out[name] = span_value(spans, span, field)
    return out


def merge_spans(spans_per_pass: List[Dict[str, dict]], problems: List[str]
                ) -> Dict[str, dict]:
    """Counts of the first traced pass (all must agree), median times."""
    first = spans_per_pass[0]
    for other in spans_per_pass[1:]:
        a = {n: {k: v for k, v in s.items() if not k.endswith("_s")}
             for n, s in first.items()}
        b = {n: {k: v for k, v in s.items() if not k.endswith("_s")}
             for n, s in other.items()}
        if a != b:
            problems.append("span counts differ between traced passes")
            break
    out = {}
    for name, s in first.items():
        row = dict(s)
        for key in ("total_s", "self_s"):
            row[key] = statistics.median(p.get(name, {}).get(key, 0.0)
                                         for p in spans_per_pass)
        out[name] = row
    return out


def layer_mix(workload: str, spans: Dict[str, dict]) -> Dict[str, object]:
    """The layer mix the workload is predicted to show."""
    self_s = {n: s["self_s"] for n, s in spans.items()}
    belts = sum(s["calls"] for n, s in spans.items()
                if n.startswith("belts.find_k_belts"))
    mix: Dict[str, object] = {"largest_self": largest_self(spans),
                              "find_k_belts_calls": belts}
    if workload == "grow":
        mix["predicted"] = mix["largest_self"] == "maps.canonical_code" \
            and belts == 0
    elif workload == "oracle":
        spiral = self_s.get("spiral.wind", 0) + self_s.get("winding.glue", 0)
        rest = [v for n, v in self_s.items()
                if n not in ("spiral.wind", "winding.glue")]
        mix["predicted"] = spiral > max(rest, default=0) and belts == 0
    return mix


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",),
                    help="all: each workload in turn, in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke test's sizes")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once and print its seconds at reference speed")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fullerkit" / "__init__.py").is_file():
        print("perfbench: no fullerkit sources at %s" % src, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    gauge = Gauge()
    with gauge:
        import workloads
    import_s = gauge.scaled_s

    setup, run_pass = workloads.WORKLOADS[args.workload]
    tracer = Tracer(gauge.clock) if args.trace else None
    setup_spans: Dict[str, dict] = {}
    if tracer is None:
        with gauge:
            st = setup(args.seed, args.size)
        setups = [import_s + gauge.scaled_s]
        if args.setup_only:
            print(setups[0])
            return 0
        setups += [child_setup_seconds(args) for _ in range(SETUP_RUNS - 1)]
    else:
        tracer.install()
        try:
            with gauge, tracer.recording():
                st = setup(args.seed, args.size)
        finally:
            tracer.remove()
        setup_spans = tracer.take(gauge.factor)

    plain, traced, spans_per_pass = run_passes(run_pass, st, args.seconds,
                                               gauge, tracer)
    problems: List[str] = []
    results = [p.result for p in plain + traced]
    if len({r.digest for r in results}) != 1:
        problems.append("outputs differ between passes%s"
                        % (" (traced vs untraced)" if traced else ""))
    info: Dict[str, object] = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(), "pass_s": [p.scaled_s for p in plain],
        "pass_raw_s": [p.raw_s for p in plain],
        "pass_factor": [p.factor for p in plain],
        "traced_pass_s": [p.scaled_s for p in traced],
    }
    corpus_n = st.get("corpus_n")
    if corpus_n:
        info["corpus_size"] = len(corpus_n)
        info["n_range"] = [min(corpus_n), max(corpus_n)]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if tracer else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    if tracer is None:
        values = end_to_end(plain, setups)
        info["item_samples"] = sum(max(1, len(p.latencies)) for p in plain)
        info["setups"] = setups
    else:
        spans = merge_spans(spans_per_pass, problems)
        for name in workloads.EXERCISED[args.workload]:
            if span_value(spans, name, "calls") == 0:
                problems.append("layer %s made no calls" % name)
        overhead = (statistics.median(p.scaled_s for p in traced)
                    - statistics.median(p.scaled_s for p in plain))
        values = layer_metrics(list(units), spans, setup_spans,
                               results[0].counts, overhead)
        info["layer_mix"] = layer_mix(args.workload, spans)
        info["spans"] = spans

    attempted = sum(r.items for r in results)
    # a harness check that fails counts as one more failed item
    failed = min(attempted, sum(r.failed for r in results) + len(problems))
    errors = [e for r in results for e in r.errors] + problems
    info["error_rate"] = failed / max(1, attempted)
    info["errors"] = errors[:20]
    correct = not errors and failed == 0
    for e in errors[:20]:
        print("perfbench: %s" % e, file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": max(1, attempted), "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u}
                    for n, u in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
