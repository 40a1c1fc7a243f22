"""What one item of each workload runs, its verdict document, and the verdict
gate.

run_item() is the timed part.  It calls the program through the package
namespace (germcontract.<name>), so the tracer in spans.py sees every call.
check() is the gate: it compares each answer with a route the program keeps
apart from the one that produced it, and returns one message per mismatch.
Nothing in the gate is timed.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from math import gcd

import germcontract as gc

import corpus

CLI_TIMEOUT_S = 60


class Failed:
    """An item that raised where no exception was expected."""

    def __init__(self, exc: BaseException):
        self.error = f"{type(exc).__name__}: {exc}"


class Refused:
    """An item that raised PreconditionError."""


# --- timed item runners -----------------------------------------------------


def run_analyze(item):
    curve = gc.parse_puiseux(item["series"])
    data = gc.puiseux_pairs(curve)
    rep = gc.semigroup_conditions(data, item["r"])
    return curve, rep, gc.is_algebraic(curve, item["r"])


def run_classify(item):
    rep = gc.semigroup_conditions(item["pairs"], item["r"])
    return rep, gc.witness_curves(item["pairs"], item["r"], rep)


def run_dualgraph(item):
    g = gc.build_dual_graph(item["pairs"], item["r"])
    definite = gc.is_negative_definite(gc.intersection_matrix(g))
    return g, definite, gc.export_graph(g, "json")


def run_cli(item):
    """One `python -m germcontract` process; it inherits PYTHONPATH=src."""
    proc = subprocess.run(
        [sys.executable, "-m", "germcontract", *item["argv"]],
        capture_output=True, timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


RUNNERS = {
    "analyze_germs": run_analyze,
    "classify_census": run_classify,
    "dualgraph_check": run_dualgraph,
}


def run_item(workload: str, item):
    if workload == "cli_cold":
        return run_cli(item)
    try:
        return RUNNERS[workload](item)
    except gc.PreconditionError:
        return Refused()
    except Exception as exc:  # recorded and counted as a failed item
        return Failed(exc)


# --- verdict documents ---------------------------------------------------------


def _poles_doc(vp) -> dict:
    return {
        "alpha": vp.alpha,
        "p": vp.p,
        "tilde_omegas": list(vp.tilde_omegas),
        "omegas": list(vp.omegas),
        "generic_pole": vp.generic_pole,
        "l": vp.l,
    }


def _report_doc(rep) -> dict:
    return {
        "classification": rep.classification.value,
        "s1": list(rep.s1),
        "s2": [[e.k, e.holds, e.offender] for e in rep.s2],
        "poles": _poles_doc(rep.poles),
    }


def verdict_doc(workload: str, result) -> dict:
    if isinstance(result, Refused):
        return {"error": "PreconditionError"}
    if isinstance(result, Failed):
        return {"error": result.error}
    if workload == "analyze_germs":
        _, rep, alg = result
        keys = alg.key_forms
        return {
            **_report_doc(rep),
            "contractible": alg.contractible,
            "algebraic": alg.algebraic,
            "key_forms": [f.format() for f in keys.forms] if keys else None,
            "pole_orders": list(keys.omegas) if keys else None,
            "witness_curve": alg.witness_curve.format() if alg.witness_curve else None,
        }
    if workload == "classify_census":
        rep, wits = result
        return {
            **_report_doc(rep),
            "witnesses": [[gc.format_puiseux(w.curve), w.predicted_algebraic] for w in wits],
        }
    if workload == "dualgraph_check":
        _, definite, text = result
        return {"negative_definite": definite, "graph": text}
    code, out, _ = result
    return {"exit": code, "stdout": out}


def digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# --- independent semigroup oracle ---------------------------------------------------


class Semigroup:
    """Membership in the monoid generated by gens, from the Apery set of the
    smallest generator (one shortest-path pass over its residues); a different
    algorithm from the program's reachability bitmask."""

    def __init__(self, gens):
        self.g = 0
        for a in gens:
            self.g = gcd(self.g, a)
        gens = sorted({a // self.g for a in gens})
        m = gens[0]
        dist = [None] * m
        dist[0] = 0
        frontier = [0]
        while frontier:  # Bellman-Ford rounds; m is at most a few hundred
            nxt = []
            for res in frontier:
                for a in gens[1:]:
                    t, d = (res + a) % m, dist[res] + a
                    if dist[t] is None or d < dist[t]:
                        dist[t] = d
                        nxt.append(t)
            frontier = nxt
        self.m, self.apery = m, dist

    def __contains__(self, n: int) -> bool:
        if n < 0 or n % self.g:
            return False
        n //= self.g
        return n >= self.apery[n % self.m]


def oracle_semigroup(pairs, vp):
    """(s1, s2) recomputed from the virtual poles by the oracle above."""
    ladder = vp.omegas + (vp.generic_pole,)
    s1, s2 = [], []
    for k in range(1, vp.l + 1):
        target = pairs[k - 1][1] * vp.omegas[k]
        s1.append(target in Semigroup(vp.omegas[:k]))
        sg = Semigroup(vp.omegas[: k + 1])
        offender = next(
            (n for n in range(target - 1, ladder[k + 1], -1) if n % sg.g == 0 and n not in sg),
            None,
        )
        s2.append([k, offender is None, offender])
    return s1, s2


def expected_class(s1, s2) -> str:
    if not all(s1):
        return "OnlyNonAlgebraic"
    return "OnlyAlgebraic" if all(h for _, h, _ in s2) else "Both"


def closed_form_class(q: int, p: int, r: int) -> str:
    closed = gc.single_pair_closed_form(q, p, r)
    if not closed["contractible"]:
        return "NotContractible"
    return "Both" if closed["nonalgebraic_exists"] else "OnlyAlgebraic"


# --- the gate ----------------------------------------------------------------------


def _check_report(pairs, r, rep, errs) -> None:
    """Classification against the single-pair closed form, the generator's own
    contractibility bound (alpha < p^2) and the semigroup oracle."""
    cls = rep.classification.value
    contractible = r < corpus.r_bound(pairs)
    if (cls != "NotContractible") != contractible:
        errs.append(f"{cls} but r < p^2 - alpha(r=0) is {contractible}")
    if len(pairs) == 1:
        want = closed_form_class(pairs[0][0], pairs[0][1], r)
        if cls != want:
            errs.append(f"{cls} but the single-pair closed form gives {want}")
    if cls == "NotContractible":
        return
    s1, s2 = oracle_semigroup(pairs, rep.poles)
    got_s2 = [[e.k, e.holds, e.offender] for e in rep.s2]
    if list(rep.s1) != s1 or got_s2 != s2:
        errs.append(f"S1/S2 {list(rep.s1)}/{got_s2} but the oracle gives {s1}/{s2}")
    if cls != expected_class(s1, s2):
        errs.append(f"{cls} but S1/S2 give {expected_class(s1, s2)}")


def check_analyze(item, result) -> list[str]:
    if item["expect"] == "precondition":
        return [] if isinstance(result, Refused) else ["expected a PreconditionError"]
    curve, rep, alg = result
    errs: list[str] = []
    pairs = [tuple(pr) for pr in item["pairs"]]
    r = item["r"]
    if list(gc.puiseux_pairs(curve).pairs) != pairs:
        errs.append(f"pairs {gc.puiseux_pairs(curve).pairs} but the series was built on {pairs}")
    _check_report(pairs, r, rep, errs)
    cls = rep.classification.value
    if alg.contractible != (cls != "NotContractible"):
        errs.append(f"is_algebraic contractible={alg.contractible} but {cls}")
    if alg.contractible:
        vp = rep.poles
        if alg.key_forms.omegas != vp.omegas + (vp.generic_pole,):
            errs.append(f"engine omegas {alg.key_forms.omegas} but virtual poles {vp.omegas}+{vp.generic_pole}")
    want = {"OnlyAlgebraic": True, "OnlyNonAlgebraic": False}.get(cls)
    if want is not None and alg.algebraic is not want:
        errs.append(f"{cls} but the key forms give algebraic={alg.algebraic}")
    # Key forms on the witness curves cost about as much as the item itself
    # inside the generator's caps; outside them (the r=40 anchor's witness
    # takes half a minute) the recorded table stands in.
    if cls == "Both" and corpus.within_caps(len(pairs), item["polydromy"], r):
        for w in gc.witness_curves(pairs, r, rep):
            got = gc.is_algebraic(w.curve, r).algebraic
            if got is not w.predicted_algebraic:
                errs.append(f"witness {gc.format_puiseux(w.curve)} algebraic={got}, predicted {w.predicted_algebraic}")
    return errs


def check_classify(item, result) -> list[str]:
    rep, wits = result
    pairs = [tuple(pr) for pr in item["pairs"]]
    errs: list[str] = []
    _check_report(pairs, item["r"], rep, errs)
    cls = rep.classification.value
    want = {"NotContractible": 0, "Both": 2}.get(cls, 1)
    if len(wits) != want:
        errs.append(f"{len(wits)} witness curves for {cls}")
    elif wits:
        if list(gc.puiseux_pairs(wits[0].curve).pairs) != pairs:
            errs.append("the base witness curve has other characteristic pairs")
        if wits[0].predicted_algebraic is not all(rep.s1):
            errs.append("the base witness prediction disagrees with S1")
    return errs


def check_dualgraph(item, result) -> list[str]:
    g, definite, text = result
    pairs = [tuple(pr) for pr in item["pairs"]]
    r = item["r"]
    errs: list[str] = []
    if definite != gc.is_contractible(pairs, r):
        errs.append(f"negative definite={definite} but alpha < p^2 is {not definite}")
    if definite != (r < corpus.r_bound(pairs)):
        errs.append(f"negative definite={definite} but r < p^2 - alpha(r=0) disagrees")
    if len(pairs) == 1:
        want = corpus.euclid_quotient_sum(*pairs[0]) + r
        if len(g.vertices) != want:
            errs.append(f"{len(g.vertices)} vertices, Euclid quotient sum + r = {want}")
    if gc.parse_graph_json(text) != g:
        errs.append("export_graph(json) does not read back to the same graph")
    return errs


def _pairs_arg(text: str) -> list[tuple[int, int]]:
    return [tuple(pr) for pr in json.loads(text.replace("(", "[").replace(")", "]"))]


def check_cli(item, result) -> list[str]:
    """Exit code, then the document against library routes other than the
    one the subcommand used."""
    code, out, err = result
    if code != item["exit"]:
        return [f"exit {code}, expected {item['exit']}: {err.strip()[-200:]}"]
    if code:
        return [] if err.startswith("error: ") else ["no error message on stderr"]
    doc = json.loads(out)
    argv = item["argv"]
    opt = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}
    kind = argv[0]
    errs: list[str] = []
    if kind in ("analyze", "keyforms"):
        curve = gc.parse_puiseux(opt["--series"])
        pairs = list(gc.puiseux_pairs(curve).pairs)
        r = int(opt["--r"])
        rep = gc.semigroup_conditions(pairs, r)
        _check_report(pairs, r, rep, errs)
        vp = rep.poles
        poles = vp.omegas + (vp.generic_pole,)
        if kind == "analyze":
            if doc["classification"] != rep.classification.value:
                errs.append("analyze and classify disagree")
            if doc["contractible"] and tuple(doc["pole_orders"]) != poles:
                errs.append("pole orders differ from the virtual poles")
        elif rep.classification.value != "NotContractible" and tuple(doc["omegas"]) != poles:
            errs.append("keyforms omegas differ from the virtual poles")
    elif kind == "classify":
        pairs = _pairs_arg(opt["--pairs"])
        rep = gc.semigroup_conditions(pairs, int(opt["--r"]))
        _check_report(pairs, int(opt["--r"]), rep, errs)
        if [doc["classification"], doc["s1"], [[e["k"], e["holds"], e["offender"]] for e in doc["s2"]]] != [
            rep.classification.value, list(rep.s1), [[e.k, e.holds, e.offender] for e in rep.s2]
        ]:
            errs.append("classify --json differs from the library report")
    elif kind == "dualgraph":
        ((q, p),), r = _pairs_arg(opt["--pairs"]), int(opt["--r"])
        if len(doc["vertices"]) != corpus.euclid_quotient_sum(q, p) + r:
            errs.append("vertex count differs from the Euclid quotient sum + r")
    elif kind == "singlepair":
        q, p, r = int(opt["--q"]), int(opt["--p"]), int(opt["--r"])
        cls = gc.semigroup_conditions([(q, p)], r).classification.value
        if doc["contractible"] != (cls != "NotContractible") or doc["nonalgebraic_exists"] != (cls == "Both"):
            errs.append(f"closed form {doc} but the semigroup route gives {cls}")
    elif kind == "sweep":
        ((q, p),) = _pairs_arg(opt["--pairs"])
        for row in doc["sweep"]:
            if row["classification"] != closed_form_class(q, p, row["r"]):
                errs.append(f"sweep r={row['r']} disagrees with the closed form")
            if row.get("consistent") is False:
                errs.append(f"sweep r={row['r']} sampled curve inconsistent")
    return errs


CHECKS = {
    "analyze_germs": check_analyze,
    "classify_census": check_classify,
    "dualgraph_check": check_dualgraph,
    "cli_cold": check_cli,
}


def check(workload: str, item, result) -> list[str]:
    if isinstance(result, Failed):
        return [f"unexpected {result.error}"]
    if isinstance(result, Refused) and workload != "analyze_germs":
        return ["unexpected PreconditionError"]
    try:
        return CHECKS[workload](item, result)
    except Exception as exc:  # a malformed answer is a failed item, not a crash
        return [f"gate raised {type(exc).__name__}: {exc}"]
