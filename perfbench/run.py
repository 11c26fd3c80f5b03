#!/usr/bin/env python3
"""Benchmark of the tropmom command-line tool.

    python3 perfbench/run.py --workload projection --seed 1 --seconds 16 --trace 0

Runs one workload's corpus (corpus.py) in this process as a closed loop
with one client: each problem is one in-process call of
``tropmom.cli.main`` with stdout and stderr captured, one problem at a
time.  Passes over the corpus repeat until ``--seconds`` have gone by;
every pass is whole.  After the timed passes each distinct problem's
output is checked once (checks.py), and every later pass must have
reproduced it byte for byte.

Times are reported at a fixed machine speed.  On the shared 2-core VM
of the README's figures the same code ran up to 1.8 times slower for tens
of seconds at a time, so a fixed loop of exact Fraction arithmetic is
timed between calls, and each call's time is scaled by the reference time of that loop
over the loop's time around the call.  The raw times are printed too.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it holds the
per-layer metrics (tracing.py).  Results and spans are written under
perfbench/out/.  tropmom is imported from src/ of the checkout this
file sits in; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import corpus
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# time of speed_loop() at the reference speed (its fastest on the 2-core
# Xeon machine the README's figures come from)
REFERENCE_LOOP_S = 0.006
BASELINE_MODULES = frozenset(sys.modules)


def speed_loop() -> float:
    """Wall time of a fixed loop of exact Fraction arithmetic."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - start


def set_up(workload: str, seed: int):
    """Import tropmom afresh, with every module it pulls in that this
    script had not loaded, then write and read back the corpus."""
    start = time.perf_counter()
    for name in [m for m in sys.modules if m not in BASELINE_MODULES]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("tropmom.cli")
    problems = corpus.build(workload, seed)
    calls = corpus.write(problems, OUT / f"corpus-{workload}-{seed}")
    return time.perf_counter() - start, cli, problems, calls


def call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = None
    return time.perf_counter() - start, (rc, out.getvalue(), err.getvalue())


def metric(value, unit):
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "tropmom" / "cli.py").is_file():
        print(f"error: no tropmom sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setups = []
    before = speed_loop()
    for _ in range(SETUP_REPEATS):
        elapsed, cli, problems, calls = set_up(args.workload, args.seed)
        after = speed_loop()
        setups.append(elapsed * 2 * REFERENCE_LOOP_S / (before + after))
        before = after
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: tropmom was imported from {cli.__file__}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer()
    modes = (False, True) if args.trace else (False,)
    scaled = {on: [[] for _ in problems] for on in modes}
    raw = [[] for _ in problems]
    loops = []
    first: list = [None] * len(problems)
    differ = [0] * len(problems)
    layer_passes, span_log, first_traced = [], [], None
    rounds = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        for on in modes:
            if on:
                tracer.install()
            before = speed_loop()
            per_problem = []
            for i, argv in enumerate(calls):
                elapsed, result = call(cli, argv)
                after = speed_loop()
                scale = 2 * REFERENCE_LOOP_S / (before + after)
                before = after
                loops.append(after)
                scaled[on][i].append(elapsed * scale)
                if not on:
                    raw[i].append(elapsed)
                if first[i] is None:
                    first[i] = result
                elif result != first[i]:
                    differ[i] += 1
                if on:
                    spans, counts = tracer.take()
                    span_log.append({"round": rounds, "problem": problems[i].name,
                                     "spans": spans})
                    per_problem.append(tracing.layer_metrics(spans, counts, scale))
            if on:
                tracer.uninstall()
                layer_passes.append({k: sum(m[k] for m in per_problem)
                                     for k in per_problem[0]})
                first_traced = first_traced or per_problem
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checked = time.perf_counter()
    # scipy loads only now, after the peak RSS is read, and without the
    # worker threads its BLAS would start
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import checks

    rng = random.Random(f"check:{args.workload}:{args.seed}")
    failed_problems, wrong = set(), []
    for i, p in enumerate(problems):
        try:
            checks.check(p, *first[i], rng)
        except checks.Failed as exc:
            failed_problems.add(i)
            print(f"FAILED {p.name}: {exc}", file=sys.stderr)
        except checks.Wrong as exc:
            wrong.append(p.name)
            print(f"WRONG {p.name}: {exc}", file=sys.stderr)
        except Exception:
            # an output the checks cannot read, such as a renamed field
            wrong.append(p.name)
            print(f"WRONG {p.name}: the check raised", file=sys.stderr)
            traceback.print_exc()
        if differ[i]:
            wrong.append(p.name)
            print(f"WRONG {p.name}: {differ[i]} later calls differ from the first",
                  file=sys.stderr)
    print(f"{rounds} rounds; checks took {time.perf_counter() - checked:.1f} s",
          file=sys.stderr)

    median = {on: [statistics.median(t) for t in scaled[on]] for on in modes}
    print(f"speed loop: median {statistics.median(loops) * 1e3:.2f} ms, "
          f"reference {REFERENCE_LOOP_S * 1e3:.2f} ms")
    print(f"{'problem':28s} {'scaled':>9s} {'raw min':>9s} {'raw med':>9s}  exit")
    for p, s, r, (rc, _, _) in zip(problems, median[False], raw, first):
        print(f"{p.name:28s} {s:9.4f} {min(r):9.4f} {statistics.median(r):9.4f}  {rc}")
    if args.trace:
        print(f"{'problem':28s} {'LPs':>6s} {'cells':>9s} {'DDs':>6s} {'points':>7s}")
        for p, m in zip(problems, first_traced):
            print(f"{p.name:28s} {m['simplex.lp_calls']:6d} {m['simplex.tableau_cells']:9d} "
                  f"{m['cones.dd_calls']:6d} {m['lattice.points_built']:7d}")
        values = {}
        for name, unit in tracing.UNITS.items():
            series = [m[name] for m in layer_passes]
            values[name] = metric(statistics.median(series) if unit == "s" else series[0], unit)
            if unit != "s" and len(set(series)) != 1:
                print(f"note: {name} differs between traced passes: {series}",
                      file=sys.stderr)
        values["trace.overhead_s"] = metric(sum(median[True]) - sum(median[False]), "s")
        _write_spans(args, span_log)
    else:
        values = {
            "corpus_s": metric(sum(median[False]), "s"),
            "slowest_problem_s": metric(max(median[False]), "s"),
            "peak_rss_mib": metric(peak_rss_mib, "MiB"),
            "setup_s": metric(statistics.median(setups), "s"),
        }
    calls_per_problem = rounds * len(modes)
    result = {
        "correct": not wrong,
        "attempted": calls_per_problem * len(problems),
        "failed": calls_per_problem * len(failed_problems),
        "metrics": values,
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


def _write_spans(args, span_log: list) -> None:
    path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for block in span_log:
            fh.write(json.dumps(block) + "\n")


if __name__ == "__main__":
    sys.exit(main())
