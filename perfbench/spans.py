"""Per-module spans around the public functions of germcontract, installed
from outside the package.

install() rebinds every name under which a germcontract module holds one of
the functions in LAYERS -- the defining module, the package namespace, and
every module that imported it (criteria.essential_key_forms,
criteria.semigroup_membership, keyforms.substitute, cli.build_dual_graph,
...) -- so calls between modules go through a wrapper and spans nest.  A
span's self time is its duration minus the time of the spans it caused.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# layer -> public functions traced in it
LAYERS = {
    "puiseux": ("parse_puiseux", "puiseux_pairs"),
    "semidegree": ("generic_dps_from_curve", "substitute"),
    "keyforms": ("essential_key_forms",),
    "criteria": (
        "semigroup_conditions",
        "semigroup_membership",
        "virtual_poles",
        "witness_curves",
        "is_algebraic",
    ),
    "dualgraph": ("build_dual_graph", "intersection_matrix", "is_negative_definite", "export_graph"),
    "cli": ("run",),
}


def _coeff_bits(polys) -> int:
    best = 0
    for f in polys:
        for c in f.terms.values():
            best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


def _observe_keyforms(counts: Counter, args, keys) -> None:
    counts["keyforms.levels"] += keys.l
    counts["keyforms.lift_terms"] += sum(len(F.terms) for F in keys.lifts)
    counts["keyforms.form_terms"] += sum(len(f.terms) for f in keys.forms)
    bits = max(_coeff_bits(keys.forms), _coeff_bits(keys.lifts))
    counts["keyforms.max_coeff_bits"] = max(counts["keyforms.max_coeff_bits"], bits)


def _observe_semigroup(counts: Counter, args, rep) -> None:
    """Sum over levels of the S2 window length: the integers strictly between
    w_{k+1} and p_k * w_k, read off the returned poles."""
    pairs = getattr(args[0], "pairs", args[0])
    vp = rep.poles
    ladder = vp.omegas + (vp.generic_pole,)
    for k in range(1, len(rep.s2) + 1):
        target = pairs[k - 1][1] * vp.omegas[k]
        counts["criteria.s2_window"] += max(0, target - ladder[k + 1] - 1)


def _observe_graph(counts: Counter, args, g) -> None:
    counts["dualgraph.vertices"] += len(g.vertices)


OBSERVERS = {
    "keyforms.essential_key_forms": _observe_keyforms,
    "criteria.semigroup_conditions": _observe_semigroup,
    "dualgraph.build_dual_graph": _observe_graph,
}


class Tracer:
    """Self time and call count per span name, plus counts read off the
    values the traced functions return.  Everything stays in memory."""

    def __init__(self, error_type=Exception):
        self.error_type = error_type  # counted when it leaves a criteria span
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [layer, child seconds]

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        observe = OBSERVERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except self.error_type:
                if layer == "criteria" and (parent is None or parent[0] != "criteria"):
                    self.counts["criteria.errors"] += 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dur
                self.self_s[name] += dur - frame[1]
                self.calls[name] += 1
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced


def bindings(tracer: Tracer) -> list:
    """(module, name, original, wrapper) for every name under which a
    germcontract module binds one of the traced functions."""
    modules = [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "germcontract" or name.startswith("germcontract."))
    ]
    out = []
    for layer, names in LAYERS.items():
        home = sys.modules.get(f"germcontract.{layer}")
        if home is None:  # cli is imported only by the cli_cold workload
            continue
        for fname in names:
            fn = getattr(home, fname)
            wrapper = tracer.wrap(f"{layer}.{fname}", fn)
            for m in modules:
                out += [(m, attr, fn, wrapper) for attr, v in vars(m).items() if v is fn]
    return out


def install(binds: list) -> None:
    for m, attr, _, wrapper in binds:
        setattr(m, attr, wrapper)


def uninstall(binds: list) -> None:
    for m, attr, fn, _ in binds:
        setattr(m, attr, fn)


def layer_metrics(tracer: Tracer, passes: int, overhead_frac: float, cli_probe=None) -> dict:
    """Per-layer metrics per corpus pass, named as in BENCHMARK.json.
    cli_probe carries the cli_cold interpreter-floor and import times."""
    s, n, c = tracer.self_s, tracer.calls, tracer.counts

    def per(v):
        return v / passes

    out = {
        "keyforms.essential_s": per(s["keyforms.essential_key_forms"]),
        "keyforms.calls": per(n["keyforms.essential_key_forms"]),
        "keyforms.levels": per(c["keyforms.levels"]),
        "keyforms.lift_terms": per(c["keyforms.lift_terms"]),
        "keyforms.form_terms": per(c["keyforms.form_terms"]),
        "keyforms.max_coeff_bits": c["keyforms.max_coeff_bits"],
        "semidegree.generic_dps_s": per(s["semidegree.generic_dps_from_curve"]),
        "semidegree.substitute_s": per(s["semidegree.substitute"]),
        "semidegree.substitute_calls": per(n["semidegree.substitute"]),
        "criteria.semigroup_s": per(s["criteria.semigroup_conditions"]),
        "criteria.membership_s": per(s["criteria.semigroup_membership"]),
        "criteria.membership_calls": per(n["criteria.semigroup_membership"]),
        "criteria.s2_window": per(c["criteria.s2_window"]),
        "criteria.virtual_poles_s": per(s["criteria.virtual_poles"]),
        "criteria.witness_s": per(s["criteria.witness_curves"]),
        "criteria.is_algebraic_s": per(s["criteria.is_algebraic"]),
        "criteria.errors": per(c["criteria.errors"]),
        "dualgraph.build_s": per(s["dualgraph.build_dual_graph"]),
        "dualgraph.vertices": per(c["dualgraph.vertices"]),
        "dualgraph.definite_s": per(
            s["dualgraph.intersection_matrix"] + s["dualgraph.is_negative_definite"]
        ),
        "dualgraph.export_s": per(s["dualgraph.export_graph"]),
        "puiseux.parse_s": per(s["puiseux.parse_puiseux"]),
        "puiseux.pairs_s": per(s["puiseux.puiseux_pairs"]),
        "puiseux.calls": per(n["puiseux.parse_puiseux"] + n["puiseux.puiseux_pairs"]),
        "cli.interp_floor_s": 0.0,
        "cli.import_s": 0.0,
        "cli.run_s": per(s["cli.run"]),
        "trace.overhead_frac": overhead_frac,
    }
    if cli_probe is not None:
        out.update(cli_probe)
    return out


def self_times(tracer: Tracer) -> dict:
    """Layer name -> self seconds, summed over the spans of that layer."""
    out: defaultdict[str, float] = defaultdict(float)
    for name, v in tracer.self_s.items():
        out[name.split(".", 1)[0]] += v
    return dict(out)
