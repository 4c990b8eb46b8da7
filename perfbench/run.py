#!/usr/bin/env python3
"""The apdrec benchmark: one workload per run, from a seed, answers checked.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The inputs are built from the seed and timed as set-up, three times.  The
measured phase then runs passes over the workload's items, one item at a
time in a single thread (a closed loop with one client), until ``--seconds``
have gone by; the first pass is always whole.  Every answer is checked
outside its timer.  A fixed reference loop is timed after every item and
around every set-up, and reported times are scaled to one reference speed of
the machine (see ``normalise``).  With ``--trace 1`` one more pass runs under
the outside-in tracer and per-layer metrics are printed instead of
end-to-end ones.

The last line of standard output is the JSON result.  Details (environment,
tail percentile and sample counts, digests, exact query counts) are written
to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``; a traced run also
writes its spans to ``perfbench/out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import random
import time
from fractions import Fraction
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples the tail percentile leaves above it
# Times are reported at the machine speed at which one ``reference()`` call
# takes REFERENCE_S seconds, a round figure between its fast and slow times
# on the VM described in README.md.
REFERENCE_S = 0.010
REFERENCE_WINDOW = 2  # reference timings on each side that judge one item
SETUP_REFERENCES = 3  # reference calls before and after each set-up


def git_commit() -> str:
    """Commit of the checkout read from .git, or "unknown" outside git."""
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


def source_digest() -> str:
    """sha256 over the library sources, naming the code measured without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "apdrec").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def tail(values):
    """Highest percentile leaving TAIL_BEYOND samples above it: (value, pct)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return None, None
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def reference() -> None:
    """A fixed piece of stdlib work shaped like the oracle kernel: exact
    ``Fraction`` dot products, a sort of the heights, and a Z/2 column
    reduction on sets.  It calls no library code, so no change to the
    library changes its time; only the speed of the machine does."""
    rng = random.Random(7)
    points = [
        tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(3))
        for _ in range(120)
    ]
    direction = (Fraction(3, 7), Fraction(-2, 5), Fraction(1, 3))
    sorted(sum(a * b for a, b in zip(p, direction)) for p in points)
    low = {}
    for column in (set(rng.sample(range(200), 3)) for _ in range(300)):
        while column:
            pivot = max(column)
            if pivot not in low:
                low[pivot] = column
                break
            column ^= low[pivot]


def reference_time(calls: int = 1) -> float:
    """Median seconds of ``calls`` runs of ``reference``."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        reference()
        times.append(time.perf_counter() - start)
    return median(times)


def normalise(durations, references):
    """Scale each duration to the machine speed at which ``reference`` takes
    REFERENCE_S, judged by the reference timings nearest to it in time."""
    out = []
    for t, duration in enumerate(durations):
        window = references[max(0, t - REFERENCE_WINDOW):t + REFERENCE_WINDOW + 1]
        out.append(duration * REFERENCE_S / median(window))
    return out


def measure(workload, seconds: float, item_errors, tracer=None) -> dict:
    """Passes over the items until ``seconds`` of measured time have gone by
    (the first pass always whole; one pass under a tracer).  A reference
    timing follows every item.  Each answer is checked after its timer
    stops; the answers of the first pass feed the digest and the exact
    counts."""
    clock = time.perf_counter
    n = len(workload.items)
    order, durations, references = [], [], []
    pass_times = []
    attempted = failed = 0
    digest = hashlib.sha256()
    begin = clock()
    done = False
    while not done:
        first = not pass_times
        workload.start_pass()
        elapsed = 0.0
        for i in range(n):
            if not first and clock() - begin >= seconds:
                done = True
                break
            if tracer is not None:
                tracer.item = f"{workload.name}/{i}"
                tracer.active = True
            start = clock()
            try:
                out = workload.run(i)
            except item_errors as exc:
                out = None
                print(f"item {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            duration = clock() - start
            if tracer is not None:
                tracer.active = False
            references.append(reference_time())
            elapsed += duration
            order.append(i)
            durations.append(duration)
            attempted += 1
            ok = out is not None and workload.check(i, out)
            if not ok:
                failed += 1
                print(f"item {i} failed the correctness gate", file=sys.stderr)
            if first:
                digest.update(workload.answer(i, out).encode() if ok else b"FAILED\n")
                if out is not None:
                    workload.tally(out)
        else:
            pass_times.append(elapsed)
        if first:
            counts = workload.counts()
        done = done or tracer is not None or clock() - begin >= seconds
    samples = [[] for _ in range(n)]
    raw = [[] for _ in range(n)]
    for i, duration, norm in zip(order, durations, normalise(durations, references)):
        samples[i].append(norm)
        raw[i].append(duration)
    return {
        "per_item": [median(s) for s in samples],
        "per_item_raw": [median(s) for s in raw],
        "pass_times": pass_times,
        "reference_s": median(references),
        "attempted": attempted,
        "failed": failed,
        "digest": digest.hexdigest(),
        "counts": counts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "apdrec" / "__init__.py").is_file():
        print(f"error: no apdrec sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH)]
    import apdrec

    if Path(apdrec.__file__).resolve().parent != (src / "apdrec").resolve():
        print(f"error: imported apdrec from {apdrec.__file__}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer, per_layer_metrics

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    expected = json.loads((BENCH / "expected.json").read_text())
    env = environment(args)

    workload = workloads.make(args.workload)
    setup_times, setup_norm = [], []
    for _ in range(SETUP_REPEATS):
        before = reference_time(SETUP_REFERENCES)
        start = time.perf_counter()
        workload.setup(args.seed)
        setup_times.append(time.perf_counter() - start)
        after = reference_time(SETUP_REFERENCES)
        setup_norm.append(setup_times[-1] * REFERENCE_S / ((before + after) / 2))

    result = measure(workload, args.seconds, workloads.ITEM_ERRORS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = result["attempted"], result["failed"]
    recorded = expected["digests"].get(args.workload, {}).get(str(args.seed))
    digest_ok = recorded is None or recorded == result["digest"]
    if not digest_ok:
        print(f"answer digest {result['digest']} differs from the recorded {recorded}",
              file=sys.stderr)
    baseline = expected["counts"].get(args.workload, {}).get(str(args.seed))

    per_item = result["per_item"]
    tail_value, tail_pct = tail(per_item)
    items = len(per_item)
    details = {
        "items_per_pass": items,
        "passes": len(result["pass_times"]),
        "items_timed": result["attempted"],
        "pass_times_s": result["pass_times"],
        "setup_times_s": setup_times,
        "setup_times_normalised_s": setup_norm,
        "reference_s": result["reference_s"],
        "wall_raw_s": sum(result["per_item_raw"]),
        "latency_p50_raw_ms": median(result["per_item_raw"]) * 1000,
        "latency_samples": items,
        "latency_tail_percentile": tail_pct,
        "latency_tail_ms": tail_value * 1000,
        "failed_fraction": failed / attempted,
        "digest": result["digest"],
        "digest_recorded": recorded,
        "counts": result["counts"],
        "counts_recorded": baseline,
        "counts_match_record": None if baseline is None else baseline == result["counts"],
    }

    OUT.mkdir(exist_ok=True)
    if args.trace:
        with Tracer() as traced_setup:
            traced_setup.item = "setup"
            workload.setup(args.seed)
        with Tracer() as traced_run:
            traced = measure(workload, 0, workloads.ITEM_ERRORS, tracer=traced_run)
        attempted += traced["attempted"]
        failed += traced["failed"]
        if traced["digest"] != result["digest"]:
            digest_ok = False
            print("traced answers differ from untraced ones", file=sys.stderr)
        # per-item ratios, so a burst of load from elsewhere moves few of them
        overhead = median(
            t / u for t, u in zip(traced["per_item"], result["per_item"])
        ) - 1
        metrics = per_layer_metrics(traced_setup, traced_run, overhead)
        details["traced_pass_s"] = traced["pass_times"][0]
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"environment": env, "setup": traced_setup.dump(), "pass": traced_run.dump()}
        ))
    else:
        # one pass made of each item's median time
        wall = sum(per_item)
        metrics = {
            "setup_s": (median(setup_norm), "s"),
            "wall_s": (wall, "s"),
            "items_per_s": (items / wall, "1/s"),
            "latency_p50_ms": (median(per_item) * 1000, "ms"),
            "latency_tail_ms": (tail_value * 1000, "ms"),
            "oracle_queries": (result["counts"]["oracle_queries"], "count"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    correct = failed == 0 and digest_ok
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps({"environment": env, "details": details, **out}, indent=1))

    print(f"# {args.workload} seed {args.seed}: {items} items, {result['attempted']} timed, "
          f"reference {result['reference_s'] * 1000:.2f} ms, "
          f"latency tail p{tail_pct:.1f} of {items} per-item medians = {tail_value * 1000:.1f} ms, "
          f"failed {failed}/{attempted}, digest {result['digest'][:16]}"
          f"{'' if recorded is None else (' (matches record)' if digest_ok else ' (MISMATCH)')}")
    print("# environment " + json.dumps(env, sort_keys=True))
    print("# counts " + json.dumps(result["counts"], sort_keys=True))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
