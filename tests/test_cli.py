"""Frontend behavior: exit codes, output formats, spec files."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import germcontract
import germcontract.criteria as criteria
from germcontract import (
    InvariantViolationError,
    build_dual_graph,
    parse_graph_json,
    semigroup_conditions,
)
from germcontract.cli import run
from germcontract.cli import _report_doc


def test_classify_text_output(capsys):
    assert run(["classify", "--pairs", "[(3,5)]", "--r", "8"]) == 0
    out = capsys.readouterr().out
    assert "alpha = 23, p^2 = 25" in out
    assert "S2 k=1: FAIL (largest gap element 3)" in out
    assert out.rstrip().endswith("classification: Both")


def test_classify_json_matches_library(capsys):
    assert run(["classify", "--pairs", "[(3,5),(23,2)]", "--r", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == _report_doc(semigroup_conditions([(3, 5), (23, 2)], 1))
    assert doc["classification"] == "OnlyNonAlgebraic"
    assert doc["s1"] == [True, False]


def test_json_output_is_deterministic(capsys):
    argv = ["analyze", "--series", "u^(3/5)", "--r", "8", "--json"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["contractible"] is True
    assert doc["algebraic"] is True
    assert doc["witness_curve"] == "y^5 - x^2"
    assert doc["wp_weights"] == [1, 5, 2, 2]
    assert doc["pole_orders"] == [5, 2, 2]


def test_analyze_text_perturbed_cusp(capsys):
    assert run(["analyze", "--series", "u^(3/5) + u^2", "--r", "8"]) == 0
    out = capsys.readouterr().out
    assert "series: u^(3/5) + u^2" in out
    assert "pairs: (3,5); r = 8" in out
    assert "contractible: yes" in out
    assert "algebraic: no" in out
    assert "witness curve" not in out


def test_degreewise_input_is_equivalent(capsys):
    assert run(["analyze", "--series", "u^(3/5)", "--r", "8", "--json"]) == 0
    local = capsys.readouterr().out
    assert run(["analyze", "--series", "x^(2/5)", "--r", "8", "--json"]) == 0
    assert capsys.readouterr().out == local


def test_keyforms_output(capsys):
    argv = ["keyforms", "--series", "u^(3/5) + u^2", "--r", "8", "--all", "--json"]
    assert run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["forms"] == ["x", "y", "y^5 - 5*x^(-1)*y^4 - x^2"]
    assert doc["all_forms"] == ["x", "y", "y^5 - x^2", "y^5 - 5*x^(-1)*y^4 - x^2"]
    assert doc["omegas"] == [5, 2, 2]
    assert doc["alphas"] == [5, 1]


FOUR_PAIRS = "u^(5/7)+u^(11/14)+u^(23/28)+u^(47/56)"
FIVE_PAIRS = FOUR_PAIRS + "+u^(95/112)"


@pytest.mark.parametrize(
    "argv,sha256",
    [
        (
            ["keyforms", "--series", FOUR_PAIRS, "--r", "3", "--json", "--all"],
            "fe3926dc3607edc6aaaab6cd8ed054bab0ba7804e7eb5d14d5edf0d5b15e18b4",
        ),
        (
            ["analyze", "--series", FOUR_PAIRS, "--r", "3", "--json", "--force-keyforms"],
            "4ca529cbdaecef74cd9fca6a83f10d08a6e28935f692759be5eb94cb7a06f7bc",
        ),
        (
            ["keyforms", "--series", FIVE_PAIRS, "--r", "3", "--json", "--all"],
            "a0103de1489ad5bf6b2584c97d119d59dddbbf2fca9afce030355dd0cc146122",
        ),
        (
            ["analyze", "--series", FIVE_PAIRS, "--r", "3", "--json", "--force-keyforms"],
            "e6ea95fd0a926c7e428aecb245100be302b655280645e3c04034d87e8e731ac7",
        ),
    ],
)
def test_multi_pair_json_bytes_are_pinned(capsys, argv, sha256):
    """The 4- and 5-pair germs lie outside the benchmark corpus; their
    documents were recorded from the Fraction-valued Poly store."""
    assert run(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


def test_keyforms_text_lists_lifts(capsys):
    assert run(["keyforms", "--series", "u^(3/5)", "--r", "0"]) == 0
    out = capsys.readouterr().out
    assert "f_0 = x" in out and "f_1 = y" in out
    assert "pole orders: 5, 2" in out


def test_keyforms_text_full_chain(capsys):
    """The intermediate y^5 - x^2 has pole order 3 and is not essential."""
    assert run(["keyforms", "--series", "u^(3/5) + u^2", "--r", "8", "--all"]) == 0
    out = capsys.readouterr().out
    assert out.split("full chain:\n", 1)[1].splitlines() == [
        "  x  [pole order 5, essential]",
        "  y  [pole order 2, essential]",
        "  y^5 - x^2  [pole order 3]",
        "  y^5 - 5*x^(-1)*y^4 - x^2  [pole order 2, essential]",
    ]


def test_dualgraph_dot_default(capsys):
    assert run(["dualgraph", "--pairs", "[(3,5)]", "--r", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph G {")
    assert 'E1 [label="w=-3"];' in out
    assert "Ltilde -- E2;" in out


def test_dualgraph_json_round_trip(capsys):
    assert run(["dualgraph", "--pairs", "[(3,5),(23,2)]", "--r", "1", "--format", "json"]) == 0
    g = parse_graph_json(capsys.readouterr().out)
    ref = build_dual_graph([(3, 5), (23, 2)], 1)
    assert [v.label for v in g.vertices] == [v.label for v in ref.vertices]
    assert [v.weight for v in g.vertices] == [v.weight for v in ref.vertices]
    assert g.edges == ref.edges
    assert g.estar_attachment == ref.estar_attachment


@pytest.mark.parametrize(
    "pairs,r,size,sha256",
    [
        (
            "[(3,5),(23,2)]",
            "40",
            6069,
            "85e675609e0869543fc48d9bd109321ea2cc860eb789ff52b83ef93b98482d32",
        ),
        (
            "[(1,2)]",
            "20000",
            2386963,
            "2a37225e8cb5e51a44c93e0b14463b67c29ae889718ddf4040b484f0907fe972",
        ),
    ],
)
def test_dualgraph_json_bytes_are_pinned(capsys, pairs, r, size, sha256):
    """Recorded from json.dumps(doc, sort_keys=True, indent=2), before the
    export wrote the document itself; the second graph has 20,001 vertices."""
    assert run(["dualgraph", "--pairs", pairs, "--r", r, "--json"]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == size
    assert hashlib.sha256(out).hexdigest() == sha256


def test_dualgraph_json_flag_aliases_format(capsys):
    assert run(["dualgraph", "--pairs", "[(3,5)]", "--r", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["vertices"]) == 6


def test_singlepair_flags(capsys):
    argv = "singlepair --poly v^5-u^3 --p 5 --q 3 --r 8 --json".split()
    assert run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "algebraic": True,
        "alpha": 23,
        "contractible": True,
        "nonalgebraic_exists": True,
    }


def test_singlepair_text(capsys):
    assert run(["singlepair", "--poly", "v^5 - u^3", "--p", "5", "--q", "3", "--r", "10"]) == 0
    out = capsys.readouterr().out
    assert "contractible: no" in out


def test_spec_file_with_flag_override(tmp_path, capsys):
    spec = tmp_path / "cusp.germ"
    spec.write_text('# the plain cusp\nseries = "u^(3/5)"\nr = 0\n')
    assert run(["classify", str(spec), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["classification"] == "OnlyAlgebraic"
    assert run(["classify", str(spec), "--r", "10", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["classification"] == "NotContractible"


def test_singlepair_spec_file(tmp_path, capsys):
    spec = tmp_path / "wp.germ"
    spec.write_text('poly = "v^5 - u^3"\np = 5\nq = 3\nr = 9\n')
    assert run(["singlepair", str(spec), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["algebraic"] is True


def test_sweep_lines(capsys):
    assert run(["sweep", "--pairs", "[(3,5)]", "--r-max", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11
    assert lines[0] == "r=0: OnlyAlgebraic"
    assert lines[8] == "r=8: Both"
    assert lines[10] == "r=10: NotContractible"


def test_sweep_seed_is_reproducible_and_consistent(capsys):
    argv = ["sweep", "--series", "u^(3/5)", "--r-max", "10", "--seed", "7"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    assert "consistent: False" not in first
    assert "consistent: True" in first


def test_sweep_json_document(capsys):
    assert run(["sweep", "--pairs", "[(3,5)]", "--r-max", "10", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "pairs": [[3, 5]],
        "sweep": [
            {"r": r, "classification": semigroup_conditions([(3, 5)], r).classification.value}
            for r in range(11)
        ],
    }
    assert doc["sweep"][8]["classification"] == "Both"


def test_sweep_only_nonalgebraic_rows_check_a_non_algebraic_curve(capsys):
    argv = ["sweep", "--pairs", "[(3,5),(23,2)]", "--r-max", "2", "--seed", "1"]
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [
        f"r={r}: OnlyNonAlgebraic (sampled curve algebraic: False, consistent: True)"
        for r in (1, 2)
    ]


def test_classify_reads_a_single_tuple_as_one_pair(capsys):
    assert run(["classify", "--pairs", "(3,5)", "--r", "8"]) == 0
    single = capsys.readouterr().out
    assert run(["classify", "--pairs", "[(3,5)]", "--r", "8"]) == 0
    assert capsys.readouterr().out == single
    assert single.rstrip().endswith("classification: Both")


def test_pairs_that_are_not_a_sequence_exit_2(capsys):
    assert run(["classify", "--pairs", "5", "--r", "8"]) == 2
    assert capsys.readouterr().err == "error: pairs must be a list of (q, p) tuples\n"


def test_spec_file_series_that_is_not_a_string_exits_2(tmp_path, capsys):
    spec = tmp_path / "number.germ"
    spec.write_text("series = 5\nr = 1\n")
    assert run(["classify", str(spec)]) == 2
    assert capsys.readouterr().err == "error: series must be a string\n"


def test_analyze_text_of_a_non_contractible_germ(capsys):
    assert run(["analyze", "--series", "u^(3/5)", "--r", "10"]) == 0
    out = capsys.readouterr().out
    assert "classification: NotContractible" in out
    assert "contractible: no" in out
    assert out.rstrip().endswith("algebraic: n/a (not contractible)")


PARSE_FAILS = [
    ["classify", "--series", "u^^2", "--r", "1"],
    ["classify", "--series", "u^(3/5)", "--pairs", "[(3,5)]", "--r", "1"],
    ["classify", "--r", "1"],
    ["classify", "--series", "u^(3/5)"],
    ["classify", "--series", "u^(3/5)", "--r", "-2"],
    ["classify", "--pairs", "[(3,5),(2,2)]", "--r", "1"],
    ["classify", "--pairs", "[]", "--r", "1"],
    ["classify", "--pairs", "[(3,5),(1,2)]", "--r", "1"],
    ["classify", "--pairs", "[(-3,5)]", "--r", "1"],
    ["classify", "--pairs", "[(3.5,5)]", "--r", "9"],
    ["classify", "--pairs", "[('3',5)]", "--r", "1"],
    ["classify", "--pairs", "[(3,5,1)]", "--r", "1"],
    ["classify", "--pairs", "{[1]: 2}", "--r", "1"],
    ["classify", "/no/such/file.germ"],
    ["singlepair", "--poly", "v^5 - u^3", "--p", "5"],
    ["singlepair", "--poly", "v^5 - u^3", "--p", "5", "--q", "3", "--r", "-1"],
    ["singlepair", "--poly", "v^5 - u^10", "--p", "5", "--q", "10", "--r", "1"],
    ["sweep", "--pairs", "[(3,5)]", "--r-max", "-1"],
    ["analyze", "--series", "u^(1/-2)", "--r", "1"],
    ["analyze", "--series", "2/-3*u^(3/5)", "--r", "1"],
    ["singlepair", "--poly", "v^5 - 1/-2*u^3", "--p", "5", "--q", "3", "--r", "1"],
    # '²'.isdigit() holds, but int('²') raises
    ["analyze", "--series", "u^²", "--r", "1"],
    ["analyze", "--series", "u^(1/²)", "--r", "1"],
    # nesting too deep for ast.literal_eval: RecursionError, then MemoryError
    ["classify", "--pairs=" + "-" * 3000 + "1", "--r", "1"],
    ["classify", "--pairs=" + "-" * 50000 + "1", "--r", "1"],
]


def _argv_id(argv) -> str:
    return " ".join(a if len(a) <= 60 else f"{a[:3]}...({len(a)} chars)" for a in argv)


@pytest.mark.parametrize("argv", PARSE_FAILS, ids=[_argv_id(a) for a in PARSE_FAILS])
def test_unusable_input_exits_2(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "(at position 0)" not in err


def test_signed_denominator_names_the_sign(capsys):
    assert run(["keyforms", "--series", "u^(3/5) + 2/-3*u^2", "--r", "1"]) == 2
    assert capsys.readouterr().err == "error: sign in a denominator (at position 12)\n"


def test_zero_q_is_refused_by_the_q_rule(capsys):
    for argv in (
        ["singlepair", "--poly", "v^5 - u^3", "--p", "5", "--q", "0", "--r", "1"],
        ["classify", "--pairs", "[(0,5)]", "--r", "1"],
    ):
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: local pair with q = 0: q must be >= 1\n"


def test_malformed_spec_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.germ"
    bad.write_text("flavor = 3\n")
    assert run(["classify", str(bad), "--r", "1"]) == 2
    err = capsys.readouterr().err
    assert "bad.germ:1" in err
    assert "(at position" not in err
    # well-formed lines with values that fail the pair, r or poly rule
    for command, text in [
        ("singlepair", 'poly = "v^5 - u^3"\np = "5"\nq = 3\nr = 9\n'),
        ("singlepair", 'poly = 5\np = 5\nq = 3\nr = 9\n'),
        ("singlepair", 'poly = "v^5 - u^3"\np = 5\nq = 3\nr = 1.5\n'),
        ("classify", 'pairs = [(3,5)]\nr = True\n'),
        ("classify", f"pairs = {'-' * 3000}1\nr = 1\n"),
        ("classify", f"pairs = {'-' * 50000}1\nr = 1\n"),
    ]:
        bad.write_text(text)
        assert run([command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "(at position" not in err


def test_precondition_failures_exit_3(capsys):
    # order >= 1: the configuration cannot contract
    assert run(["analyze", "--series", "u^(7/5)", "--r", "0"]) == 3
    assert "order >= 1" in capsys.readouterr().err
    # one tangency rule: the same text from analyze and dualgraph
    assert run(["analyze", "--pairs", "[(7,5)]", "--r", "0"]) == 3
    analyze_err = capsys.readouterr().err
    assert run(["dualgraph", "--pairs", "[(7,5)]", "--r", "0"]) == 3
    assert capsys.readouterr().err == analyze_err
    # key forms need actual coefficients
    assert run(["keyforms", "--pairs", "[(3,5)]", "--r", "1"]) == 3
    assert run(["classify", "--series", "u + u^2", "--r", "1"]) == 3


def _closed_form_mutant(q, p, r):
    """single_pair_closed_form with 2p - q + 1 in place of 2p - q."""
    contractible = r < p * (p - q)
    return {
        "contractible": contractible,
        "nonalgebraic_exists": contractible and r > 2 * p - q + 1,
    }


_VIRTUAL_POLES = criteria._virtual_poles


def _poles_off_by_one(data, r):
    """The virtual poles with the generic pole one too high."""
    vp = _VIRTUAL_POLES(data, r)
    return vp._replace(generic_pole=vp.generic_pole + 1)


@pytest.mark.parametrize(
    "argv,name,mutant,keys",
    [
        (
            ["classify", "--pairs", "[(3,5)]", "--r", "8", "--json"],
            "single_pair_closed_form",
            _closed_form_mutant,
            ["classification", "closed_form_class", "pair", "r"],
        ),
        (
            ["analyze", "--series", "u^(3/5) + u^(23/10)", "--r", "1", "--json"],
            "_virtual_poles",
            _poles_off_by_one,
            ["generic_pole", "pole_orders", "r", "virtual_poles"],
        ),
    ],
)
def test_invariant_failures_exit_4_with_the_state_dump(
    monkeypatch, capsys, argv, name, mutant, keys
):
    """A failed self-check is neither bad input nor a closed pipe: nothing on
    stdout, one error line and the state dump as one JSON line on stderr."""
    monkeypatch.setattr(criteria, name, mutant)
    assert run(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    message, dump = err.splitlines()
    assert message.startswith("error: internal invariant failed: ")
    assert sorted(json.loads(dump)) == keys


def test_a_state_dump_that_json_cannot_write_is_written_by_repr(monkeypatch, capsys):
    def fails(*args):
        raise InvariantViolationError("forced", where=object, poles=(1, 2))

    monkeypatch.setattr(criteria, "semigroup_conditions", fails)
    assert run(["classify", "--pairs", "[(3,5)]", "--r", "8"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err.splitlines()[1]) == {"poles": [1, 2], "where": "<class 'object'>"}


def test_argparse_rejects_unknown_subcommand():
    for argv in (
        ["frobnicate"],
        # flags are spelled in full: no prefix of --r-max or --force-keyforms
        ["sweep", "--pairs", "[(3,5)]", "--r", "1"],
        ["sweep", "--pairs", "[(3,5)]", "--r-max", "3", "--r", "2"],
        ["analyze", "--series", "u^(3/5)", "--r", "1", "--force"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
# The directory that holds the germcontract package under test.
IMPORT_ROOT = str(Path(germcontract.__file__).resolve().parent.parent)


def _declared_script(name):
    """The `module:attr` target of `name` in pyproject's [project.scripts].

    A line-based read of that one table, so no `tomllib` (3.11+) is needed.
    """
    table = None
    for line in PYPROJECT.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            table = line
        elif table == "[project.scripts]":
            m = re.fullmatch(r'"?([\w.-]+)"?\s*=\s*"([^"]+)"', line)
            if m and m.group(1) == name:
                return m.group(2)
    raise LookupError(f"{name!r} is not declared in [project.scripts] of {PYPROJECT}")


def _pinned_env():
    """The environment with the package under test first on the import path,
    so an installed copy elsewhere cannot answer in its place."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [IMPORT_ROOT, env.get("PYTHONPATH")]))
    return env


def _run_pinned(argv):
    return subprocess.run(argv, capture_output=True, text=True, env=_pinned_env())


def test_console_script_smoke():
    # Run the declared target the way the wrapper that pip installs does.
    module, attr = _declared_script("germcontract").split(":")
    wrapper = (
        f"import sys\nfrom {module} import {attr}\n"
        f"sys.argv[0] = 'germcontract'\nsys.exit({attr}())\n"
    )
    proc = _run_pinned(
        [sys.executable, "-c", wrapper,
         "classify", "--pairs", "[(3,5)]", "--r", "9", "--json"]
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["classification"] == "Both"


def test_module_entry_smoke():
    proc = _run_pinned(
        [sys.executable, "-m", "germcontract", "singlepair", "--poly", "v^2-u",
         "--p", "2", "--q", "1", "--r", "0", "--json"]
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["contractible"] is True


def test_malformed_series_exits_2_without_a_traceback():
    proc = _run_pinned(
        [sys.executable, "-m", "germcontract", "analyze", "--series", "u^²", "--r", "1"]
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_closed_stdout_exits_1_quietly():
    """A reader that is gone (`... | head -c 10`) is not an input error: the
    child prints nothing to stderr and exits 1."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "germcontract", "keyforms",
             "--series", "u^(3/5)+u^2", "--r", "8", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=_pinned_env(),
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 1


def test_importing_the_main_module_runs_nothing():
    # tools that walk a package import every module, __main__ included
    proc = _run_pinned([sys.executable, "-c", "import germcontract.__main__"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_classification_census_script_check():
    proc = _run_pinned([sys.executable, str(SCRIPTS / "classification_census.py"), "--check"])
    assert proc.returncode == 0, proc.stderr
    assert "closed-form check: 0 mismatches" in proc.stdout


# --- what a process loads ----------------------------------------------------

LIBRARY = {"criteria", "dualgraph", "errors", "keyforms", "poly", "puiseux", "semidegree"}
# printed at exit, so also after a sys.exit in the code under test
_LOADED = (
    "import atexit, sys\n"
    "atexit.register(lambda: print(' '.join(sorted(m.split('.', 1)[1] for m in sys.modules"
    " if m.startswith('germcontract.')))))\n"
)
# runs sys.argv[1:] through the frontend and keeps its exit code in code
_RUN = (
    "import contextlib, io\nfrom germcontract import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.run(sys.argv[1:])\n"
)


def _loaded_after(code, *args, exit_code=0):
    """The germcontract submodules a fresh interpreter has loaded once it has
    run code (with sys imported) and args as sys.argv[1:] and exited with
    exit_code."""
    proc = _run_pinned([sys.executable, "-c", _LOADED + code, *args])
    assert proc.returncode == exit_code, proc.stderr
    return set(proc.stdout.split())


def _absent(*names):
    """Code that exits 1, naming them, when any of the modules names has
    been imported."""
    return f"hit = {set(names)!r} & set(sys.modules)\nif hit: sys.exit(f'imported {{sorted(hit)}}')\n"


def test_importing_the_package_or_the_cli_loads_no_library_module():
    """dir() lists every exported name before any is read."""
    code = (
        "import germcontract\n"
        "if not set(germcontract.__all__) <= set(dir(germcontract)): sys.exit(1)"
    )
    assert _loaded_after(code) == set()
    assert _loaded_after("import germcontract.cli") == {"cli", "errors"}
    assert _loaded_after("import germcontract.__main__") == {"__main__", "cli", "errors"}


def test_importing_the_cli_loads_neither_dataclasses_nor_ast():
    code = "import germcontract.cli\n" + _absent("dataclasses", "ast")
    assert _loaded_after(code) == {"cli", "errors"}


_SERIES = "u^(1/4) - 3*u^2"


@pytest.mark.parametrize(
    "argv,modules",
    [
        (["analyze", "--series", _SERIES, "--r", "12", "--json"],
         "criteria keyforms poly puiseux semidegree"),
        (["sweep", "--pairs", "[(1,4)]", "--r-max", "6", "--seed", "92", "--json"],
         "criteria keyforms poly puiseux semidegree"),
        (["keyforms", "--series", _SERIES, "--r", "12", "--json"],
         "keyforms poly puiseux semidegree"),
        (["classify", "--pairs", "[(3,5)]", "--r", "9", "--json"], "criteria poly puiseux"),
        (["sweep", "--pairs", "[(1,4)]", "--r-max", "6", "--json"], "criteria poly puiseux"),
        (["singlepair", "--poly", "v^4 - u^1", "--p", "4", "--q", "1", "--r", "9", "--json"],
         "criteria poly puiseux semidegree"),
        (["dualgraph", "--pairs", "[(1,4)]", "--r", "0", "--json"], "dualgraph poly puiseux"),
    ],
    ids=["analyze", "sweep-seed", "keyforms", "classify", "sweep", "singlepair", "dualgraph"],
)
def test_each_subcommand_loads_only_the_modules_it_calls(argv, modules):
    assert _loaded_after(_RUN + "sys.exit(code)", *argv) == {"cli", "errors", *modules.split()}


def test_dualgraph_never_imports_dataclasses():
    argv = ["dualgraph", "--pairs", "[(3,5),(23,2)]", "--r", "40", "--json"]
    code = _RUN + _absent("dataclasses") + "sys.exit(code)"
    assert _loaded_after(code, *argv) == {"cli", "dualgraph", "errors", "poly", "puiseux"}


@pytest.mark.parametrize("series,exit_code", [("u^(3/", 2), ("u^(8/5)", 3)])
def test_analyze_checks_its_input_before_the_decision_layer_loads(series, exit_code):
    """A malformed series (exit 2) and a germ of order >= 1 (exit 3) are
    refused before criteria, and with it dataclasses, is imported."""
    code = _RUN + _absent("dataclasses") + "sys.exit(code)"
    argv = ["analyze", "--series", series, "--r", "1", "--json"]
    assert _loaded_after(code, *argv, exit_code=exit_code) == {"cli", "errors", "poly", "puiseux"}


def test_the_first_read_of_any_exported_name_loads_the_whole_library():
    """What perfbench/spans.py relies on: its tracer rebinds the functions of
    the modules in sys.modules after the worker has read one name.  One
    interpreter; the package is dropped from sys.modules before each name."""
    code = (
        "import germcontract\n"
        "for name in germcontract.__all__:\n"
        "    for m in [m for m in sys.modules if m.startswith('germcontract')]:\n"
        "        del sys.modules[m]\n"
        "    import germcontract\n"
        "    getattr(germcontract, name)\n"
        "    got = {m for m in sys.modules if m.startswith('germcontract.')}\n"
        "    if len(got) != 7: sys.exit(f'{name}: {sorted(got)}')"
    )
    assert _loaded_after(code) == LIBRARY


def test_every_exported_name_is_its_home_modules_object():
    import importlib

    names = germcontract.__all__
    assert len(set(names)) == len(names) and names == sorted(names)
    homes = germcontract._EXPORTS
    assert set(homes) == LIBRARY
    for module, exported in homes.items():
        home = importlib.import_module(f"germcontract.{module}")
        for name in exported:
            assert getattr(germcontract, name) is getattr(home, name)
    star = {}
    exec("from germcontract import *", star)
    assert sorted(set(star) - {"__builtins__"}) == names
    assert set(names) <= set(dir(germcontract))


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(germcontract, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        germcontract.no_such_name  # noqa: B018
    from germcontract import puiseux

    assert puiseux.parse_puiseux is germcontract.parse_puiseux
