"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import germcontract as gc  # noqa: E402

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _dump(workload: str, seed: int) -> str:
    return json.dumps(corpus.corpus(workload, seed), sort_keys=True)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_byte_identical_corpus(workload):
    assert _dump(workload, 7) == _dump(workload, 7)
    assert _dump(workload, 7) != _dump(workload, 8)


def test_corpus_is_identical_in_a_fresh_process():
    code = "import corpus, json; print(json.dumps([corpus.corpus(w, 7) for w in corpus.WORKLOADS], sort_keys=True))"
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == json.dumps([corpus.corpus(w, 7) for w in corpus.WORKLOADS], sort_keys=True)


def test_caps_take_input_properties_only():
    for cap in (corpus.analyze_cap, corpus.classify_cap, corpus.dual_multi_cap):
        assert set(inspect.signature(cap).parameters) <= {"npairs", "p"}


def test_generation_reads_no_clock(monkeypatch):
    want = {w: _dump(w, 3) for w in corpus.WORKLOADS}

    def no_clock(*_):
        raise AssertionError("the corpus generator read a clock")

    for name in ("perf_counter", "time", "monotonic", "process_time"):
        monkeypatch.setattr(time, name, no_clock)
    assert {w: _dump(w, 3) for w in corpus.WORKLOADS} == want


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_items_respect_the_caps(seed):
    pmax = {npairs: pm for _, _, npairs, _, _, pm in corpus.ANALYZE_STRATA}
    for item in corpus.analyze_corpus(seed):
        if item["id"].startswith(("one", "two", "three")):
            assert item["polydromy"] <= pmax[item["npairs"]]
            assert item["r"] <= corpus.analyze_cap(item["npairs"], item["polydromy"])
            assert gc.puiseux_pairs(gc.parse_puiseux(item["series"])).pairs == tuple(
                tuple(pr) for pr in item["pairs"]
            )
    for item in corpus.classify_corpus(seed):
        if not item["id"].startswith("anchor"):
            assert item["r"] <= corpus.classify_cap(item["polydromy"])
    for item in corpus.dualgraph_corpus(seed):
        if item["id"].startswith("multi"):
            assert item["r"] <= corpus.dual_multi_cap(item["polydromy"])
        elif item["id"].startswith("single"):
            n = corpus.euclid_quotient_sum(*item["pairs"][0]) + item["r"]
            assert n <= corpus.DUAL_SINGLE_N[1]


def test_r_bound_is_the_contractibility_threshold():
    rng = random.Random(0)
    for _ in range(30):
        first = corpus._tangent_first(rng.randint(2, 9), rng.random())
        later = [(rng.random(), rng.random()) for _ in range(2)]
        pairs = corpus._pairs_above(first, rng.randint(1, 3), (2, 3), 2, (1, 10**6), later)
        b = corpus.r_bound(pairs)
        for r in {max(0, b - 1), max(0, b), max(0, b + 1)}:
            assert gc.is_contractible(pairs, r) == (r < b)


def test_semigroup_oracle_matches_enumeration():
    rng = random.Random(1)
    for _ in range(40):
        gens = [rng.randint(2, 30) for _ in range(rng.randint(1, 3))]
        sg = workloads.Semigroup(gens)
        reach = {0}
        for n in range(1, 200):
            if any(n - a in reach for a in gens):
                reach.add(n)
        assert [n in sg for n in range(200)] == [n in reach for n in range(200)]


def _first(workload: str, prefix: str, seed: int = 0):
    return next(it for it in corpus.corpus(workload, seed) if it["id"].startswith(prefix))


def test_gate_passes_honest_results():
    for w, prefix in (("analyze_germs", "anchor-cusp"), ("classify_census", "single"),
                      ("dualgraph_check", "anchor-cusp")):
        item = _first(w, prefix)
        assert workloads.check(w, item, workloads.run_item(w, item)) == []


def test_gate_catches_corrupted_verdicts():
    item = _first("analyze_germs", "anchor-cusp")
    curve, rep, alg = workloads.run_item("analyze_germs", item)
    wrong_cls = dataclasses.replace(rep, classification=gc.Classification.ONLY_ALGEBRAIC)
    assert workloads.check("analyze_germs", item, (curve, wrong_cls, alg))
    keys = dataclasses.replace(alg.key_forms, omegas=alg.key_forms.omegas[:-1] + (99,))
    assert workloads.check("analyze_germs", item, (curve, rep, dataclasses.replace(alg, key_forms=keys)))
    single = _first("classify_census", "single")
    rep, wits = workloads.run_item("classify_census", single)
    if rep.s2:
        e = rep.s2[0]
        bad = dataclasses.replace(e, offender=(e.offender or 0) + 1, holds=False)
        assert workloads.check("classify_census", single, (dataclasses.replace(rep, s2=(bad,) + rep.s2[1:]), wits))
    item = _first("dualgraph_check", "anchor-cusp")
    g, definite, text = workloads.run_item("dualgraph_check", item)
    assert workloads.check("dualgraph_check", item, (g, not definite, text))
    assert workloads.check("analyze_germs", item | {"expect": "verdict"}, workloads.Failed(ValueError("x")))
    cli = _first("cli_cold", "parse-error")
    assert workloads.check("cli_cold", cli, (0, "{}", ""))


def test_gate_catches_a_corrupted_program(monkeypatch):
    item = _first("dualgraph_check", "anchor-cusp")
    monkeypatch.setattr(gc, "is_negative_definite", lambda m: False)
    assert workloads.check("dualgraph_check", item, workloads.run_item("dualgraph_check", item))


def test_table_catches_a_changed_document():
    import worker

    item = _first("analyze_germs", "anchor-cusp")
    res = workloads.run_item("analyze_germs", item)
    assert worker.gate("analyze_germs", 5, [item], [res]) == {}
    curve, rep, alg = res
    other = dataclasses.replace(alg, witness_curve=gc.parse_poly("y^5 - x^3"))
    assert worker.gate("analyze_germs", 5, [item], [(curve, rep, other)])


def test_tail_leaves_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, beyond) == (89.0, 10)
    assert pct == pytest.approx(90.0)


def test_times_are_scaled_to_the_reference_speed():
    res = {"scale": 0.5, "pass_s": [1.0, 1.0], "item_s": [0.1, 0.2, 0.3], "item_runs": 6,
           "reference_s": 0.0015, "peak_rss_mb": 20.0, "rss_of": "worker"}
    metrics, lines = run.end_to_end(res, [0.08])
    assert metrics["items_per_s"]["value"] == pytest.approx(3 / 0.3)
    assert metrics["latency_p50_ms"]["value"] == pytest.approx(100.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.04)
    assert "as measured" in lines[1]


def test_reference_does_not_touch_the_package():
    import worker

    names = set(worker.reference.__code__.co_names)
    assert not names & set(dir(gc)), names


def test_doc_names_every_workload_and_metric():
    with open(os.path.join(HERE, "README.md")) as fh:
        doc = fh.read()
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    for name in names + ["failed_frac"]:
        assert f"`{name}`" in doc, name
    assert names[: len(corpus.WORKLOADS)] == list(corpus.WORKLOADS)


def test_reported_metrics_match_benchmark_json():
    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.END_TO_END_UNITS)
    for m in BENCH["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    layers = spans.layer_metrics(spans.Tracer(), 1, 0.0)
    assert [m["name"] for m in BENCH["per_layer"]] == list(layers)
    for m in BENCH["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
    for w in BENCH["workloads"]:
        assert re.fullmatch(r"[^\n]{1,200}", w["why"])


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
