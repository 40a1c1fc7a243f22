"""One benchmark run of one workload, in a fresh process.

Run by run.py as `python perfbench/worker.py --workload W --seed N
--seconds S --trace 0|1` from the root of a checkout, with PYTHONPATH=src.
The first thing it does is import the package, so that import is one sample
of setup_s.  Then it generates the corpus, runs it as a closed loop with one
client -- passes over the corpus, each item started when the previous one
has finished -- until S seconds have gone by, gates
every verdict, and prints one JSON line for run.py.

With --trace 1 each item runs twice per pass, once plain and once with the
spans of spans.py installed; the per-layer numbers come from the second.
"""

import sys
import time

_T0 = time.perf_counter()
import germcontract  # noqa: E402

if "cli_cold" in sys.argv:
    import germcontract.cli  # noqa: E402,F401
SETUP_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from fractions import Fraction  # noqa: E402

import corpus  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "verdicts.json")
PROBES = 5  # fresh interpreters per cli_cold layer probe


# Host speed.  On the machine the benchmark was defined on, the same code runs
# up to 1.8x slower for minutes at a time, as other tenants load the host.
# Before every item the loops time reference(), a fixed computation that does
# not touch germcontract, and the reported times are scaled by
# REFERENCE_S / (the run's mean reference time).  A change in host speed moves
# both alike and cancels; a change in the program leaves the reference alone
# and shows in full.
REFERENCE_S = 0.00075  # mean time of reference() over the defining runs


def reference():
    """Exact fractions in a dict, big-integer shifts and a sort: the kinds of
    work germcontract does, in about REFERENCE_S seconds."""
    a = {i: Fraction(i + 1, 7 + i % 5) for i in range(10)}
    out = {}
    for i, x in a.items():
        for j, y in a.items():
            out[i + j] = out.get(i + j, 0) + x * y
    m = 1
    for k in range(1, 120):
        m |= (m << (k % 37)) & ((1 << 800) - 1)
    return m, sorted(str(v) for v in out.values())


def time_reference(samples: list) -> None:
    t0 = time.perf_counter()
    reference()
    samples.append(time.perf_counter() - t0)


def closed_loop(items, run_one, seconds):
    """Passes over the corpus until `seconds` have gone by; the first pass
    always completes, and the last one stops where the time runs out.
    Returns per-item times, first-pass results and the time of each pass
    begun (the last one possibly partial), and the reference times."""
    times = [[] for _ in items]
    ref = []
    results = [None] * len(items)
    pass_s = []
    clock = time.perf_counter
    end = clock() + seconds
    while True:
        p0 = clock()
        for i, item in enumerate(items):
            if pass_s and clock() >= end:
                pass_s.append(clock() - p0)
                return times, results, pass_s, ref
            time_reference(ref)
            t0 = clock()
            res = run_one(item)
            times[i].append(clock() - t0)
            if not pass_s:
                results[i] = res
        pass_s.append(clock() - p0)
        if clock() >= end:
            return times, results, pass_s, ref


def gate(workload, seed, items, results) -> dict[str, list[str]]:
    """Independent-route checks on every item, then the recorded table: the
    anchors for every seed, every item for the recorded seed."""
    with open(TABLE) as fh:
        table = json.load(fh)
    recorded = table["workloads"][workload]
    failures = {}
    for item, res in zip(items, results):
        errs = workloads.check(workload, item, res)
        if item["id"].startswith("anchor-") or seed == table["seed"]:
            if recorded.get(item["id"]) != workloads.digest(workloads.verdict_doc(workload, res)):
                errs.append("verdict document differs from the recorded table")
        if errs:
            failures[item["id"]] = errs
    return failures


def in_process_cli(item):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = germcontract.cli.run(item["argv"])
    return code, out.getvalue(), err.getvalue()


def _probe(code: str) -> float:
    """Wall time of a fresh interpreter running `code`, or the float it prints."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, check=True,
    )
    wall = time.perf_counter() - t0
    return float(proc.stdout) if proc.stdout.strip() else wall


def cli_layer_probe(n_items: int) -> dict:
    """Interpreter floor and import of germcontract.cli, per process, times
    the one process per item of a pass."""
    floor = statistics.median(_probe("pass") for _ in range(PROBES))
    imp = statistics.median(
        _probe("import time; t = time.perf_counter(); import germcontract.cli; "
               "print(time.perf_counter() - t)")
        for _ in range(PROBES)
    )
    return {"cli.interp_floor_s": floor * n_items, "cli.import_s": imp * n_items}


def largest_pole(item):
    if not item.get("pairs"):
        return None
    try:
        vp = germcontract.virtual_poles(item["pairs"], item["r"])
    except germcontract.PreconditionError:
        return None
    return max(vp.omegas + (vp.generic_pole,))


def traced_loop(items, run_plain, seconds):
    """Each item plain, then traced, per pass.  Returns the tracer, per-item
    records, first-pass results, passes, plain and traced totals, and the
    reference times."""
    tracer = spans.Tracer(germcontract.PreconditionError)
    bindings = spans.bindings(tracer)
    records = [
        {"id": it["id"], "npairs": it.get("npairs"), "polydromy": it.get("polydromy"),
         "r": it.get("r"), "bits": it.get("bits"), "largest_pole": largest_pole(it),
         "plain_s": 0.0, "traced_s": 0.0, "self_s": {}}
        for it in items
    ]
    plain_total = traced_total = 0.0
    ref = []
    results = [None] * len(items)
    passes = 0
    clock = time.perf_counter
    start = clock()
    while True:
        for i, item in enumerate(items):
            time_reference(ref)
            t0 = clock()
            results[i] = run_plain(item)
            t1 = clock()
            before = spans.self_times(tracer)
            spans.install(bindings)
            try:
                t2 = clock()
                run_plain(item)
                t3 = clock()
            finally:
                spans.uninstall(bindings)
            rec = records[i]
            rec["plain_s"] += t1 - t0
            rec["traced_s"] += t3 - t2
            for layer, v in spans.self_times(tracer).items():
                rec["self_s"][layer] = rec["self_s"].get(layer, 0.0) + v - before.get(layer, 0.0)
            plain_total += t1 - t0
            traced_total += t3 - t2
        passes += 1
        elapsed = clock() - start
        if elapsed + elapsed / passes > seconds:
            break
    for rec in records:
        rec["plain_s"] /= passes
        rec["traced_s"] /= passes
        rec["self_s"] = {k: v / passes for k, v in sorted(rec["self_s"].items())}
    return tracer, records, results, passes, plain_total, traced_total, ref


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = args.workload

    t0 = time.perf_counter()
    items = corpus.corpus(w, args.seed)
    corpus_s = time.perf_counter() - t0

    out = {"setup_s": SETUP_S, "corpus_s": corpus_s, "items": len(items)}
    def run_one(item):
        return workloads.run_item(w, item)

    if args.trace:
        plain = in_process_cli if w == "cli_cold" else run_one
        tracer, records, results, passes, plain_total, traced_total, ref = traced_loop(
            items, plain, args.seconds
        )
        scale = REFERENCE_S / statistics.fmean(ref)
        probe = cli_layer_probe(len(items)) if w == "cli_cold" else None
        layers = spans.layer_metrics(tracer, passes, traced_total / plain_total - 1, probe)
        out["layers"] = {k: v * scale if k.endswith("_s") else v for k, v in layers.items()}
        out["records"] = records
        out["passes"] = passes
    else:
        times, results, pass_s, ref = closed_loop(items, run_one, args.seconds)
        who = resource.RUSAGE_CHILDREN if w == "cli_cold" else resource.RUSAGE_SELF
        out.update({
            "item_s": [statistics.fmean(t) for t in times],
            "item_runs": sum(len(t) for t in times),
            "times": times,
            "pass_s": pass_s,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
            "rss_of": "cli processes" if w == "cli_cold" else "worker",
        })
    out["reference_s"] = statistics.fmean(ref)
    out["scale"] = REFERENCE_S / out["reference_s"]
    out["failures"] = gate(w, args.seed, items, results)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
