"""germcontract benchmark: one workload, one run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from src/ with no
install step.  The run starts fresh interpreters to time the package import
(setup_s), then one fresh worker process (worker.py) that runs the seeded
corpus as a closed loop with one client and gates every verdict.  Times are
scaled to a reference host speed, measured by a fixed computation the loop
times before every item (see worker.py), so that a host slowed by other
tenants does not read as a slower program.  It prints
one line per metric with its unit and sample counts, and as its last line a
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A copy of that result, with the environment stamp and (traced) one record
per item, goes to perfbench/out/.  The exit code is 1 when any verdict
check fails and 2 when the package or the worker cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "germcontract")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5  # fresh interpreters timing the import before the worker, and again after it
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
WORKER_TIMEOUT_S = 150

sys.path.insert(0, HERE)
import corpus  # noqa: E402

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def env() -> dict:
    e = dict(os.environ)
    e["PYTHONPATH"] = SRC
    return e


def import_probe(workload: str) -> float:
    mods = "germcontract" + (", germcontract.cli" if workload == "cli_cold" else "")
    code = f"import time; t = time.perf_counter(); import {mods}; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env(), capture_output=True,
        text=True, timeout=60, check=True,
    )
    return float(proc.stdout)


def stamp(seed: int) -> dict:
    """Python version, CPU model, nproc, commit and seed of this result."""
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None  # a checkout without .git has no commit; src_sha256 still names the code
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    src = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile, samples beyond)."""
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    idx = n - TAIL_BEYOND - 1
    return s[idx], 100.0 * (idx + 1) / n, n - idx - 1


def end_to_end(res: dict, setup: list[float]) -> tuple[dict, list[str]]:
    """Every time scaled to the host speed of reference_s (see worker.py);
    the notes give the measured values beside."""
    scale, pass_s = res["scale"], res["pass_s"]
    items = [t * scale for t in res["item_s"]]
    value, pct, beyond = tail(items)
    n, passes, runs = len(items), len(pass_s), res["item_runs"]
    metrics = {
        "items_per_s": n / sum(items),
        "latency_p50_ms": 1000 * statistics.median(items),
        "latency_tail_ms": 1000 * value,
        "setup_s": statistics.median(setup) * scale,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "items_per_s": f"{n} items, each at the mean of its runs; "
                       f"{runs} runs in {passes} passes, {sum(pass_s):.2f} s",
        "latency_p50_ms": f"median over {n} items",
        "latency_tail_ms": f"p{pct:.1f}: {beyond} of {n} items beyond",
        "setup_s": f"median of {len(setup)} fresh imports",
        "peak_rss_mb": f"ru_maxrss of the {res['rss_of']}",
    }
    ref_ms = 1000 * res["reference_s"]
    lines = [f"host speed: reference() took {ref_ms:.4g} ms on average, {ref_ms * scale:.4g} ms at "
             f"reference speed; the times below are scaled by {scale:.4g}"]
    for k, v in metrics.items():
        measured = "" if k == "peak_rss_mb" else f"; {v * scale if k == 'items_per_s' else v / scale:.6g} as measured"
        lines.append(f"{k} = {v:.6g} {END_TO_END_UNITS[k]}  ({notes[k]}{measured})")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, lines


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "frac" if name.endswith("_frac") else ("bits" if name.endswith("_bits") else "count")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no package at {PACKAGE}; run from the root of a checkout", file=sys.stderr)
        return 2

    # Import probes half a minute apart, so that one slow spell of the
    # machine does not set the median alone.
    setup = []
    if not args.trace:
        import_probe(args.workload)  # warm-up: byte-compiles src/ once
        setup = [import_probe(args.workload) for _ in range(SETUP_PROBES)]
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # own session, so that a timeout also ends the CLI processes it started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"error: worker ran past {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 2
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 2
    res = json.loads(stdout.splitlines()[-1])
    if not args.trace:
        setup += [import_probe(args.workload) for _ in range(SETUP_PROBES)]
    failures = res["failures"]
    env_stamp = stamp(args.seed)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{res['items']} items, corpus generated in {res['corpus_s']:.3f} s")
    print("env: " + json.dumps(env_stamp, sort_keys=True))
    if args.trace:
        print(f"host speed: the layer times below are scaled by {res['scale']:.4g}")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["layers"].items()}
        for k, m in metrics.items():
            print(f"{k} = {m['value']:.6g} {m['unit']}  (per pass of {res['items']} items, {res['passes']} passes)")
    else:
        setup.append(res["setup_s"])
        metrics, lines = end_to_end(res, setup)
        for ln in lines:
            print(ln)
    attempted, failed = res["items"], len(failures)
    print(f"failed_frac = {failed / attempted:.6g} frac  ({failed} of {attempted} items)")
    for ident, errs in list(failures.items())[:20]:
        print(f"FAILED {ident}: {'; '.join(errs)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({**result, "env": env_stamp, "failures": failures, "pass_s": res.get("pass_s"),
                   "item_s": res.get("item_s"), "times": res.get("times"), "scale": res.get("scale"), "records": res.get("records")},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
