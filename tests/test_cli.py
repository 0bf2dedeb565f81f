"""CLI and expression grammar: exit codes, JSON reports, round trips."""

import contextlib
import copy
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from orehopf.abgroup import Character, SubgroupCharacter
from orehopf.cyclotomic import Cyclotomic
from orehopf.cli import (MAX_CONDUCTOR, MAX_DEGREE, MAX_MODULE_DIM, MAX_SAMPLES,
                         config_from_dict, main, parse_config, ConfigError)
from orehopf.exprparse import (MAX_TERM_DEGREE, ParseError, element_to_expr,
                               parse_element, serialize_element)
from orehopf.reps import ModuleRep, build_Vx_diff, build_Vx_skew, conjugate
from orehopf.hopfcore import cyclotomic_to_literal, literal_to_cyclotomic, random_element
from orehopf.linalg import inverse, mat_mul
from orehopf.catalog import (catalog_entry, catalog_names, generalized_taft,
                             takeuchi_u1)

from gen import diff_sweep_spec, quotient_sweep_spec, skew_sweep_spec

U1 = {
    "conductor": 2,
    "group": {"free_rank": 1, "torsion": []},
    "chi": [1], "eta": [1], "b": [1], "c": [1], "beta": -1,
    "quotient": {"lambda1": 1, "lambda2": 1},
}

SKEW3 = {
    "conductor": 3,
    "group": {"free_rank": 2, "torsion": []},
    "chi": [1, 0], "eta": [1, 0], "b": [2, 0], "c": [1, 0], "beta": 0,
}


@pytest.fixture
def write_config(tmp_path):
    def _write(data, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)
    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


STATUS = {0: "pass", 1: "fail", 2: "error"}


def contract_run(argv):
    """(exit code, stdout object) of main(argv), after checking the CLI
    contract: one JSON object on stdout, an exit code in {0, 1, 2}, no
    traceback and at most 20 s."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    # an exception escaping main would be a traceback on the command line
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 20, argv
    assert code in (0, 1, 2), argv
    payload = json.loads(out.getvalue())     # exactly one JSON object
    assert isinstance(payload, dict), argv
    assert "Traceback" not in err.getvalue(), argv
    return code, payload


# ---------------------------------------------------------------------------
# expression grammar


def test_parse_examples():
    spec = takeuchi_u1().spec
    a = parse_element("x*y + 2", spec)
    assert a == spec.x() * spec.y() + spec.unit(spec.scalar(2))
    b = parse_element("g1^-2 x^3", spec)
    assert b == spec.group_element(spec.group.generator(0) ** -2) * spec.x() ** 3
    yx = parse_element("y*x", spec)
    expected = -(spec.x() * spec.y()) \
        + spec.group_element(spec.b ** 2) - spec.one()
    assert yx == expected


def test_parse_whitespace_and_star_insensitive():
    spec = skew_sweep_spec(3)
    assert parse_element("2x y", spec) == parse_element("2 * x * y", spec)
    assert parse_element("  x^2+ g1", spec) == parse_element("x^2 + g1", spec)


def test_parse_zeta_coefficients():
    spec = skew_sweep_spec(3)
    from orehopf.cyclotomic import root_of_unity
    assert parse_element("zeta x", spec) == \
        spec.x().scale(root_of_unity(3, 1))
    assert parse_element("zeta^2", spec) == spec.unit(root_of_unity(3, 2))
    assert parse_element("-3/2 zeta g2", spec) == \
        spec.group_element(spec.group.generator(1)).scale(
            root_of_unity(3, 1) * spec.scalar("-3/2"))


def test_parse_error_positions():
    spec = skew_sweep_spec(3)
    with pytest.raises(ParseError, match="position 4: empty term"):
        parse_element("x + + y", spec)
    with pytest.raises(ParseError, match="unknown identifier 'q1'"):
        parse_element("q1", spec)
    with pytest.raises(ParseError, match="negative powers"):
        parse_element("x^-1", spec)
    with pytest.raises(ParseError, match="group has 2 generators"):
        parse_element("g3", spec)
    with pytest.raises(ParseError, match="must precede generators"):
        parse_element("x 2", spec)
    with pytest.raises(ParseError, match="empty expression"):
        parse_element("   ", spec)


def test_expression_round_trip_random():
    rng = random.Random(12)
    for spec in (skew_sweep_spec(4), diff_sweep_spec(3), takeuchi_u1().spec):
        for _ in range(15):
            elem = random_element(spec, rng, max_degree=3, max_terms=3)
            again = parse_element(element_to_expr(elem), spec)
            assert again == elem


def test_serialize_element_sorted_and_nonzero():
    spec = skew_sweep_spec(3)
    elem = spec.x() * spec.y() - spec.y() * spec.x()
    rows = serialize_element(elem)
    assert rows == sorted(rows, key=lambda r: (r[0], r[1], r[2]))
    assert all(r[3] != "0" for r in rows)
    assert serialize_element(spec.zero()) == []


# ---------------------------------------------------------------------------
# numeric literals and a fuzz test of the element commands


def _beta(literal):
    return lambda write_config, tmp_path: ["validate", write_config(dict(U1, beta=literal))]


def _beta_text(text):
    # a literal that json.dumps cannot write, such as 1e999
    def argv(write_config, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(U1, beta="@")).replace('"@"', text))
        return ["validate", str(path)]
    return argv


def _module_entry(literal):
    """argv of `module check` on a skew-vx file whose x[0][0] is literal."""
    def argv(write_config, tmp_path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["module", "build", "skew-vx", write_config(SKEW3),
                         "--params", json.dumps({"alpha": 1, "lam": [0, 0]})])
        assert code == 0
        payload = json.loads(out.getvalue())
        payload["module"]["generators"]["x"][0][0] = literal
        path = tmp_path / "module.json"
        path.write_text(json.dumps(payload))
        return ["module", "check", str(path)]
    return argv


LITERALS = {
    "expression-zero-denominator": (
        lambda write_config, tmp_path: ["nf", write_config(U1), "1/0 x"],
        "position 0: zero denominator"),
    "expression-zero-denominator-later": (
        lambda write_config, tmp_path: ["coproduct", write_config(U1), "x + 3/00 y"],
        "position 4: zero denominator"),
    "beta-zero-denominator": (_beta("1/0"), "zero denominator in '1/0'"),
    "lambda-coeffs-zero-denominator": (
        lambda write_config, tmp_path: ["validate", write_config(
            dict(U1, quotient={"lambda1": {"coeffs": ["1/0"]}, "lambda2": 1}))],
        "zero denominator in '1/0'"),
    "zeta-pow-overflow": (_beta_text('{"zeta_pow": 1e999}'),
                          "zeta_pow must be an integer, not inf"),
    "zeta-pow-float": (_beta({"zeta_pow": 2.7}), "zeta_pow must be an integer, not 2.7"),
    "zeta-pow-bool": (_beta({"zeta_pow": True}), "zeta_pow must be an integer, not True"),
    "beta-bool": (_beta(True), "cannot interpret True as a field element"),
    # a scalar literal string is an optionally signed integer or n/d
    "beta-exponent": (_beta("1e3000000"), "'1e3000000' is not an integer or a fraction n/d"),
    "beta-decimal": (_beta("0.5"), "'0.5' is not an integer or a fraction n/d"),
    "beta-underscore": (_beta("1_0"), "'1_0' is not an integer or a fraction n/d"),
    "lambda-coeffs-exponent": (
        lambda write_config, tmp_path: ["validate", write_config(
            dict(U1, quotient={"lambda1": {"coeffs": ["1e3000000"]}, "lambda2": 1}))],
        "'1e3000000' is not an integer or a fraction n/d"),
    "module-entry-exponent": (_module_entry("1e3000000"),
                              "'1e3000000' is not an integer or a fraction n/d"),
    "module-entry-decimal": (_module_entry("0.5"),
                             "'0.5' is not an integer or a fraction n/d"),
}


@pytest.mark.parametrize("case", sorted(LITERALS))
def test_bad_numeric_literal_exit_2(write_config, tmp_path, capsys, case):
    argv, message = LITERALS[case]
    code, out, err = run(capsys, *argv(write_config, tmp_path))
    assert code == 2
    assert out["status"] == "error"
    assert message in out["facts"]["error"]
    assert "Traceback" not in err


FUZZ_CONFIGS = {"u1": U1, "skew": SKEW3, "diff": diff_sweep_spec(2).config_dict()}

# names of generators the configs do and do not have, the variables, zeta,
# integers (exponents up to 4), fractions with any denominator and operators
_TOKENS = st.one_of(
    st.sampled_from(["g1", "g2", "g3", "x", "y", "z", "zeta",
                     "^", "+", "-", "*", "/"]),
    st.integers(0, 4).map(str),
    st.builds("{}/{}".format, st.integers(0, 5), st.integers(0, 5)))


@pytest.fixture(scope="module")
def fuzz_configs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, data in FUZZ_CONFIGS.items():
        (root / f"{name}.json").write_text(json.dumps(data))
    return {name: str(root / f"{name}.json") for name in FUZZ_CONFIGS}


@settings(max_examples=200, deadline=None)
@given(config=st.sampled_from(sorted(FUZZ_CONFIGS)),
       command=st.sampled_from(["nf", "coproduct", "antipode"]),
       power=st.integers(0, 6),
       tokens=st.lists(_TOKENS, min_size=1, max_size=10),
       separator=st.sampled_from(["", " "]))
def test_element_commands_fuzz(fuzz_configs, config, command, power, tokens,
                               separator):
    argv = [command, fuzz_configs[config], separator.join(tokens)]
    if command == "antipode":
        argv += ["--power", str(power)]
    code, report = contract_run(argv)
    assert code != 1, argv
    assert report["status"] == STATUS[code], argv


# configs for the config fuzz: those above, a finite group and a quotient with
# nonzero lambda
CONFIG_BASES = dict(
    FUZZ_CONFIGS,
    taft=dict(generalized_taft(5, ((1, 2), (1, 3))).spec.config_dict(),
              quotient={"lambda1": 0, "lambda2": 0}),
    quotient=dict(quotient_sweep_spec(2, 3).config_dict(),
                  quotient={"lambda1": 1, "lambda2": "-1/2"}))

# every subcommand that loads a config, as the arguments after the config
# path; module build builds a torsion character of the base's group
CONFIG_COMMANDS = {
    "validate": [], "nf": ["x*y + 2"], "coproduct": ["x*y + 2"],
    "antipode": ["x*y + 2", "--power", "3"],
    "hopf-check": ["--samples", "1", "--max-degree", "1"], "quotient-check": [],
    "module-build": None}

# --samples values outside [1, MAX_SAMPLES], on both sides; the two commands
# that take --samples are run once more with one of them appended
_BAD_SAMPLES = st.sampled_from([-1, 0, MAX_SAMPLES + 1, 10 ** 9])

_DROP = "<drop>"
_CONFIG_VALUES = st.one_of(
    st.integers(-3, 6), st.sampled_from([12, 420, 421, 10 ** 6, -10 ** 20]),
    st.lists(st.integers(-3, 6), min_size=1, max_size=3),
    st.recursive(st.one_of(st.floats(), st.booleans(), st.none(),
                           st.sampled_from(["1", "-1/2", "1/0", "0.5", "zeta", "",
                                            {"zeta_pow": 1}, {"coeffs": [1, 2]}, {}])),
                 lambda inner: st.lists(inner, max_size=3), max_leaves=6))

_SET_OR_DROP = st.one_of(st.just(_DROP), _CONFIG_VALUES)

# (section, key, value): set or drop a key of the top level, of the group
# section or of the quotient section; "file" wraps the config in a list
_CONFIG_EDITS = st.one_of(
    st.tuples(st.just("top"), st.sampled_from(
        ["conductor", "group", "chi", "eta", "b", "c", "beta", "quotient", "seed",
         "extra"]), _SET_OR_DROP),
    st.tuples(st.just("group"), st.sampled_from(["free_rank", "torsion", "extra"]),
              _SET_OR_DROP),
    st.tuples(st.just("quotient"), st.sampled_from(["lambda1", "lambda2", "extra"]),
              _SET_OR_DROP),
    st.tuples(st.just("file"), st.none(), st.none()))


def _edit_config(data, edit):
    """data after one edit; in place while it is an object."""
    section, key, value = edit
    if not isinstance(data, dict):
        return data
    if section == "file":
        return [data]
    target = data if section == "top" else data.get(section)
    if isinstance(target, dict):
        if isinstance(value, str) and value == _DROP:
            target.pop(key, None)
        else:
            target[key] = value
    return data


@pytest.fixture(scope="module")
def config_fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config-fuzz")


@settings(max_examples=200, deadline=None)
@given(base=st.sampled_from(sorted(CONFIG_BASES)),
       command=st.sampled_from(sorted(CONFIG_COMMANDS)),
       edits=st.lists(_CONFIG_EDITS, max_size=3), bad_samples=_BAD_SAMPLES)
def test_config_commands_fuzz(config_fuzz_dir, base, command, edits, bad_samples):
    data = copy.deepcopy(CONFIG_BASES[base])
    for edit in edits:
        data = _edit_config(data, edit)
    path = config_fuzz_dir / "config.json"
    path.write_text(json.dumps(data))
    if command == "module-build":
        lam = [0] * len(CONFIG_BASES[base]["chi"])
        argv = ["module", "build", "torsion-char", str(path),
                "--params", json.dumps({"lam": lam})]
    else:
        argv = [command, str(path)] + CONFIG_COMMANDS[command]
    code, payload = contract_run(argv)
    if command == "module-build" and code == 0:
        assert sorted(payload) == ["config", "family", "module", "params"], edits
    else:
        assert payload["status"] == STATUS[code], edits
    if command in ("hopf-check", "quotient-check"):
        # the last --samples wins, and it is checked before the config is read
        argv += ["--samples", str(bad_samples)]
        code, payload = contract_run(argv)
        assert code == 2 and "--samples must be" in payload["facts"]["error"], argv


# ---------------------------------------------------------------------------
# config handling


def test_validate_u1(write_config, capsys):
    code, out, _ = run(capsys, "validate", write_config(U1))
    assert code == 0
    assert out["status"] == "pass"
    assert out["facts"]["mode"] == "DifferentialOperator"
    assert out["facts"]["antipode_order"] == 4
    assert out["facts"]["quotient"] == {"n": 2, "m": 2}


def test_missing_key(write_config, capsys):
    bad = {k: v for k, v in U1.items() if k != "eta"}
    code, out, err = run(capsys, "validate", write_config(bad))
    assert code == 2
    assert "missing config key 'eta'" in err
    assert out["status"] == "error"


def test_torsion_order_one(write_config, capsys):
    bad = dict(U1, group={"free_rank": 0, "torsion": [1]})
    code, _, err = run(capsys, "validate", write_config(bad))
    assert code == 2
    assert "torsion orders must be >= 2" in err


def test_unknown_config_key(write_config, capsys):
    bad = dict(U1, extra=1)
    code, _, err = run(capsys, "validate", write_config(bad))
    assert code == 2
    assert "unknown config key(s): extra" in err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "not valid JSON (line 1" in err


@pytest.mark.parametrize("what", ["config", "module file", "--params"])
def test_deeply_nested_json_is_invalid(tmp_path, write_config, capsys, what):
    # the JSON decoder recurses once per bracket: this depth exhausts the stack
    deep = "[" * 200000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    argv = {"config": ["validate", str(path)],
            "module file": ["module", "check", str(path)],
            "--params": ["module", "build", "torsion-char", write_config(U1),
                         "--params", deep]}[what]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out["status"] == "error"
    message = out["facts"]["error"]
    assert message.startswith(what) and "is not valid JSON: nested too deeply" in message
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("conductor", [True, MAX_CONDUCTOR + 1, 1000])
def test_conductor_bounds(write_config, capsys, conductor):
    bad = {k: v for k, v in U1.items() if k != "quotient"}
    code, out, err = run(capsys, "validate",
                         write_config(dict(bad, conductor=conductor, beta=0)))
    assert code == 2
    assert f"integer in [1, {MAX_CONDUCTOR}]" in out["facts"]["error"]
    assert "Traceback" not in err


def test_max_conductor_is_usable(write_config, capsys):
    # chi(b) = eta(c) = -1 keeps the antipode order small at phi(N) = 96
    half = MAX_CONDUCTOR // 2
    config = {"conductor": MAX_CONDUCTOR,
              "group": {"free_rank": 1, "torsion": []},
              "chi": [half], "eta": [half], "b": [1], "c": [1], "beta": 0}
    code, out, _ = run(capsys, "validate", write_config(config))
    assert code == 0
    assert out["facts"]["antipode_order"] == 4


def test_parse_config_rejects_bad_exponent_vector():
    bad = dict(U1, chi=[1, 2])
    with pytest.raises(ConfigError, match="'chi' must be a list of 1"):
        parse_config(json.dumps(bad))


# ---------------------------------------------------------------------------
# element commands


def test_nf_frozen_u1(write_config, capsys):
    code, out, _ = run(capsys, "nf", write_config(U1), "y*x")
    assert code == 0
    assert out["facts"]["expression"] == "-1 - x * y + g1^2"
    assert out["facts"]["normal_form"] == [
        [[0], 0, 0, "-1"], [[0], 1, 1, "-1"], [[2], 0, 0, "1"]]


def test_coproduct_command(write_config, capsys):
    code, out, _ = run(capsys, "coproduct", write_config(U1), "x")
    assert code == 0
    assert out["facts"]["counit"] == "0"
    assert out["facts"]["coproduct"] == [
        [[[0], 1, 0], [[0], 0, 0], "1"],
        [[[1], 0, 0], [[0], 1, 0], "1"]]


def test_antipode_power(write_config, capsys):
    path = write_config(U1)
    code, out, _ = run(capsys, "antipode", path, "x", "--power", "2")
    assert code == 0
    assert out["facts"]["expression"] == "-x"
    code, out, _ = run(capsys, "antipode", path, "x", "--power", "0")
    assert code == 0
    assert out["facts"]["expression"] == "x"
    code, _, err = run(capsys, "antipode", path, "x", "--power", "-1")
    assert code == 2
    assert "non-negative" in err


def test_antipode_power_is_reduced_by_the_order(write_config, capsys):
    # S^4 = id on u1, so a huge power costs no more than its residue
    path = write_config(U1)
    for residue in range(4):
        start = time.perf_counter()
        code, out, _ = run(capsys, "antipode", path, "x*y + g1",
                           "--power", str(10 ** 12 + residue))
        assert time.perf_counter() - start < 5
        assert code == 0 and out["facts"]["power"] == 10 ** 12 + residue
        _, reduced, _ = run(capsys, "antipode", path, "x*y + g1",
                            "--power", str(residue))
        assert out["facts"]["result"] == reduced["facts"]["result"]
        assert out["facts"]["expression"] == reduced["facts"]["expression"]


def timed_run(capsys, limit_s, *argv):
    start = time.perf_counter()
    result = run(capsys, *argv)
    assert time.perf_counter() - start < limit_s, argv
    return result


@pytest.mark.parametrize("command", ["nf", "coproduct", "antipode"])
def test_expression_term_degree_is_bounded(write_config, capsys, command):
    assert MAX_TERM_DEGREE == 32
    for config in (U1, diff_sweep_spec(2).config_dict()):
        path = write_config(config)
        for expr in ("x^200000", "y^33", "x^20 y^13", "x^16 * y^8 * x^9",
                     "g1 + 2 z^40 x"):
            code, out, err = timed_run(capsys, 5, command, path, expr)
            assert code == 2 and out["status"] == "error", expr
            assert "the x, y, z degree of a term is at most 32" in out["facts"]["error"]
            assert "Traceback" not in err
        # the bound is per term; group and zeta exponents reduce exactly
        code, _, _ = timed_run(capsys, 20, command, path,
                               "x^16 y^16 + y^32 - 3 zeta^-99999 g1^200000")
        assert code == 0


def test_max_degree_is_bounded(write_config, capsys):
    assert MAX_DEGREE == 8
    path = write_config(U1)
    for value in ("9", "40", "-1"):
        code, out, err = timed_run(capsys, 5, "hopf-check", path, "--samples", "1",
                                   "--max-degree", value)
        assert code == 2 and out["status"] == "error"
        assert "--max-degree must be an integer in [0, 8]" in err
    for value in ("0", "8"):
        code, out, _ = timed_run(capsys, 20, "hopf-check", path, "--samples", "1",
                                 "--max-degree", value)
        assert code == 0 and out["facts"]["max_degree"] == int(value)


def test_module_dim_is_bounded(write_config, tmp_path, capsys):
    assert MAX_MODULE_DIM == 16
    # skew-vx has dimension n on the skew spec of order n
    path, payload = build_module_file(
        capsys, tmp_path, write_config(skew_sweep_spec(16).config_dict()),
        "skew-vx", {"alpha": 1, "lam": [0, 1]}, "vx16.json")
    assert payload["module"]["dim"] == 16
    code, _, _ = timed_run(capsys, 20, "module", "check", path)
    assert code == 0
    spec = skew_sweep_spec(17)
    code, out, _ = timed_run(capsys, 5, "module", "build", "skew-vx",
                             write_config(spec.config_dict(), "c17.json"),
                             "--params", json.dumps({"alpha": 1, "lam": [0, 1]}))
    assert code == 2
    assert out["facts"]["error"] == "module dimension 17 exceeds the bound 16"
    lam = SubgroupCharacter(spec.chi.kernel(), spec.conductor, [0, 1])
    module = build_Vx_skew(spec.scalar(1), lam, spec)
    big = tmp_path / "vx17.json"
    big.write_text(json.dumps({"config": spec.config_dict(), "module": module.to_dict()}))
    for argv in (["check", str(big)], ["simple", str(big)], ["classify", str(big)],
                 ["iso", str(big), str(big)]):
        code, out, err = timed_run(capsys, 5, "module", *argv)
        assert code == 2, argv
        assert out["facts"]["error"] == "module dimension 17 exceeds the bound 16"
        assert "Traceback" not in err


SKEW420 = {"conductor": 420, "group": {"free_rank": 0, "torsion": [420]},
           "chi": [1], "eta": [1], "b": [419], "c": [1], "beta": 0}
DIFF420 = dict(SKEW420, eta=[419], b=[1], beta=1)


@pytest.mark.parametrize("family, params, dim", [
    ("skew-vx", {"alpha": 1, "lam": [0]}, 420),
    ("skew-vy", {"alpha": 1, "lam": [0]}, 420),
    ("skew-vxy", {"alpha_x": 1, "alpha_y": 1, "t": 1, "lam": [0]}, 420),
    ("induced", {"kvals": [1, 1], "lam": [0]}, 420),
    ("diff-vx", {"rho": [0], "lam": 1, "mu": 0}, 420),
    ("diff-vy", {"rho": [0], "lam": 0, "mu": 1}, 420),
    ("diff-vbar", {"rho": [419]}, 419),
], ids=["skew-vx", "skew-vy", "skew-vxy", "induced", "diff-vx", "diff-vy",
        "diff-vbar"])
def test_module_build_checks_the_dimension_first(write_config, capsys, family,
                                                 params, dim):
    # building any of these takes from seconds to minutes; the bound is
    # decided from the family's dimension before the matrices exist
    config = DIFF420 if family.startswith("diff") else SKEW420
    code, out, err = timed_run(capsys, 5, "module", "build", family,
                               write_config(config), "--params", json.dumps(params))
    assert code == 2 and out["status"] == "error"
    assert out["facts"]["error"] == f"module dimension {dim} exceeds the bound 16"
    assert "Traceback" not in err


def test_nf_parse_error_exit_2(write_config, capsys):
    code, out, err = run(capsys, "nf", write_config(U1), "x + + y")
    assert code == 2
    assert "syntax error at position 4" in err


# ---------------------------------------------------------------------------
# checks and seeds


def test_hopf_check_deterministic(write_config, capsys):
    path = write_config(U1)
    code, out1, _ = run(capsys, "hopf-check", path, "--samples", "5",
                        "--seed", "3")
    assert code == 0
    assert out1["facts"]["seed"] == 3
    code, out2, _ = run(capsys, "hopf-check", path, "--samples", "5",
                        "--seed", "3")
    assert out1 == out2


@pytest.mark.parametrize("command", ["hopf-check", "quotient-check"])
@pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10 ** 10])
def test_samples_is_bounded(write_config, capsys, command, samples):
    code, out, err = timed_run(capsys, 5, command, write_config(U1),
                               "--samples", str(samples))
    assert code == 2 and out["status"] == "error"
    assert f"--samples must be at most {MAX_SAMPLES}" in err


def test_samples_bound_is_accepted(write_config, capsys):
    # quotient-check samples nothing, so the bound itself costs no time
    code, out, _ = run(capsys, "quotient-check", write_config(U1),
                       "--samples", str(MAX_SAMPLES))
    assert code == 0


@pytest.mark.parametrize("command", ["hopf-check", "quotient-check"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_samples_must_be_positive(write_config, capsys, command, samples):
    code, out, err = run(capsys, command, write_config(U1), "--samples", samples)
    assert code == 2
    assert out["status"] == "error"
    assert "--samples must be a positive integer" in err


@pytest.mark.parametrize("argv", [
    ["hopf-check", "x.json", "--samples", "abc"],
    [],
    ["frobnicate"],
    ["module"],
    ["validate"],
], ids=["samples-not-int", "no-arguments", "unknown-subcommand",
        "bare-module", "validate-no-file"])
def test_usage_errors_emit_json(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out["status"] == "error"
    assert out["facts"]["error"] in err
    assert "usage:" not in err


def test_seed_resolution(write_config, capsys, monkeypatch):
    monkeypatch.setenv("ORE_HOPF_SEED", "11")
    path = write_config(U1)
    _, out, _ = run(capsys, "hopf-check", path, "--samples", "2")
    assert out["facts"]["seed"] == 11
    _, out, _ = run(capsys, "hopf-check", path, "--samples", "2",
                    "--seed", "4")
    assert out["facts"]["seed"] == 4
    seeded = dict(U1, seed=9)
    _, out, _ = run(capsys, "hopf-check", write_config(seeded, "s.json"),
                    "--samples", "2")
    assert out["facts"]["seed"] == 9
    monkeypatch.setenv("ORE_HOPF_SEED", "oops")
    code, _, err = run(capsys, "hopf-check", path, "--samples", "2")
    assert code == 2
    assert "ORE_HOPF_SEED must be an integer" in err


def test_default_seed_zero(write_config, capsys, monkeypatch):
    monkeypatch.delenv("ORE_HOPF_SEED", raising=False)
    _, out, _ = run(capsys, "hopf-check", write_config(U1), "--samples", "2")
    assert out["facts"]["seed"] == 0


def test_quotient_check(write_config, capsys):
    code, out, _ = run(capsys, "quotient-check", write_config(U1), "--samples", "3",
                       "--seed", "5")
    assert code == 0
    assert sorted(out["facts"]) == ["basis", "check", "hopf_ideal", "seed"]
    assert out["facts"]["hopf_ideal"]["sign_p"] == "-1"
    assert out["facts"]["basis"] == {
        "rank": 4, "monomials": [[0, 0], [0, 1], [1, 0], [1, 1]]}
    assert out["facts"]["seed"] == 5
    no_quot = {k: v for k, v in U1.items() if k != "quotient"}
    code, _, err = run(capsys, "quotient-check", write_config(no_quot, "n.json"))
    assert code == 2
    assert "no quotient section" in err


def test_quotient_with_a_non_normal_generator_exits_2(write_config):
    # chi(g3)^2 = -1 with n = 2, so x^2 is not normal and lambda1 != 0
    # would put 1 - b^2 into the ideal
    config = {"conductor": 4, "group": {"free_rank": 0, "torsion": [4, 4, 4]},
              "chi": [2, 0, 1], "eta": [0, 2, 0], "b": [1, 0, 0], "c": [0, 1, 0],
              "beta": 0, "quotient": {"lambda1": 1, "lambda2": 0}}
    code, out = contract_run(["quotient-check", write_config(config)])
    assert code == 2 and out["status"] == "error"
    assert "chi^n = epsilon" in out["facts"]["error"]
    config["quotient"] = {"lambda1": 0, "lambda2": 0}
    assert contract_run(["quotient-check", write_config(config)])[0] == 0


# ---------------------------------------------------------------------------
# module commands


def build_module_file(capsys, tmp_path, config_path, family, params, name):
    code = main(["module", "build", family, config_path,
                 "--params", json.dumps(params)])
    out = capsys.readouterr().out
    assert code == 0
    path = tmp_path / name
    path.write_text(out)
    return str(path), json.loads(out)


def test_module_build_check_simple_classify(write_config, tmp_path, capsys):
    config_path = write_config(SKEW3)
    path, payload = build_module_file(
        capsys, tmp_path, config_path, "skew-vx",
        {"alpha": 1, "lam": [0, 1]}, "vx.json")
    assert set(payload) == {"config", "family", "params", "module"}
    assert payload["module"]["dim"] == 3

    code, out, _ = run(capsys, "module", "check", path)
    assert code == 0
    assert out["facts"]["dim"] == 3

    code, out, _ = run(capsys, "module", "simple", path)
    assert code == 0
    assert out["facts"]["span_dimension"] == 9

    code, out, _ = run(capsys, "module", "classify", path)
    assert code == 0
    assert out["facts"]["family"] == "SkewVx"
    assert out["facts"]["dimension"] == 3
    assert out["facts"]["torsion_profile"] == {"x": "TorsionFree",
                                               "y": "Torsion"}


def test_module_classify_a_permuted_skew_vxy_file(write_config, tmp_path, capsys):
    # a permutation conjugate keeps x diagonal with another first entry, so
    # classify rebuilds from other alphas and certifies that rebuild by its
    # Krylov matrix, from a Raw or a Normalized file alike
    config_path = write_config(skew_sweep_spec(3).config_dict())
    path, payload = build_module_file(
        capsys, tmp_path, config_path, "skew-vxy",
        {"alpha_x": 2, "alpha_y": -1, "t": 1, "lam": [0, 1]}, "vxy.json")
    code, canonical, _ = run(capsys, "module", "classify", path)
    assert code == 0
    spec = config_from_dict(payload["config"]).spec
    P = [[Cyclotomic.rational(spec.conductor, int(j == (i + 1) % 3)) for j in range(3)]
         for i in range(3)]
    M = conjugate(ModuleRep.from_dict(spec, payload["module"]), P)
    z = mat_mul(inverse(M.act_group(spec.c)), M.Y)
    for presentation, second in (("Raw", M.Y), ("Normalized", z)):
        data = M.to_dict()
        data["presentation"] = presentation
        data["generators"]["y"] = [[cyclotomic_to_literal(v) for v in row] for row in second]
        file = tmp_path / f"permuted-{presentation}.json"
        file.write_text(json.dumps({"config": payload["config"], "module": data}))
        code, out, _ = run(capsys, "module", "classify", str(file))
        assert code == 0, presentation
        assert out["facts"]["family"] == "SkewVxy", presentation
        got, want = out["facts"]["parameters"], canonical["facts"]["parameters"]
        assert got["alpha_x"] != want["alpha_x"], presentation
        for key in ("alpha_x_pow", "coupling"):
            assert got[key] == want[key], (presentation, key)


def test_module_iso_and_counterexample(write_config, tmp_path, capsys):
    config_path = write_config(U1)
    pa, _ = build_module_file(capsys, tmp_path, config_path, "diff-vbar",
                              {"rho": [0]}, "a.json")
    pb, _ = build_module_file(capsys, tmp_path, config_path, "diff-vbar",
                              {"rho": [1]}, "b.json")
    code, out, _ = run(capsys, "module", "iso", pa, pa)
    assert code == 0
    assert out["facts"]["result"] == "isomorphic"
    code, out, _ = run(capsys, "module", "iso", pa, pb)
    assert code == 1
    assert out["facts"]["result"] == "not isomorphic"


def test_module_iso_prints_its_intertwiner(write_config, tmp_path, capsys):
    # the certificate T of a pass satisfies T A = B T for every generator
    path_a, payload = build_module_file(capsys, tmp_path, write_config(SKEW3), "skew-vx",
                                        {"alpha": 1, "lam": [0, 1]}, "a.json")
    spec = config_from_dict(payload["config"]).spec
    N = spec.conductor
    A = ModuleRep.from_dict(spec, payload["module"])
    P = [[Cyclotomic.rational(N, (i + 2 * j) % 3 + (i == j)) for j in range(3)]
         for i in range(3)]
    B = conjugate(A, P)
    path_b = tmp_path / "b.json"
    path_b.write_text(json.dumps({"config": payload["config"], "module": B.to_dict()}))
    for first, second, files in ((A, A, (path_a, path_a)), (A, B, (path_a, str(path_b))),
                                 (B, A, (str(path_b), path_a))):
        code, out, _ = run(capsys, "module", "iso", *files)
        assert code == 0 and out["facts"]["result"] == "isomorphic"
        T = [[literal_to_cyclotomic(v, N) for v in row] for row in out["facts"]["intertwiner"]]
        assert len(T) == 3 and inverse(T) is not None
        for X, Y in zip(first.group_mats + (first.X, first.Y),
                        second.group_mats + (second.X, second.Y)):
            assert mat_mul(T, X) == mat_mul(Y, T)
    # a fail prints none
    path_c, _ = build_module_file(capsys, tmp_path, write_config(SKEW3), "skew-vx",
                                  {"alpha": 2, "lam": [0, 1]}, "c.json")
    code, out, _ = run(capsys, "module", "iso", path_a, path_c)
    assert code == 1 and "intertwiner" not in out["facts"]


def test_module_simple_singular_group_matrix_exit_2(write_config, tmp_path,
                                                   capsys):
    path, payload = build_module_file(
        capsys, tmp_path, write_config(SKEW3), "skew-vx",
        {"alpha": 1, "lam": [0, 0]}, "vx.json")
    payload["module"]["generators"]["g1"][0] = ["0", "0", "0"]
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "module", "simple", str(path))
    assert code == 2
    assert out["status"] == "error"
    assert "does not act invertibly" in err


def test_module_check_singular_group_matrix_in_diff_mode(write_config, tmp_path,
                                                         capsys):
    # c = g1 g2 acts by zero: check names the failing entry of
    # c (z x - x z + b) = 1, simple still refuses
    path, payload = build_module_file(
        capsys, tmp_path, write_config(diff_sweep_spec(2).config_dict()),
        "torsion-char", {"lam": [2, 0]}, "char.json")
    payload["module"]["generators"]["g1"] = [["0"]]
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "module", "check", str(path))
    assert code == 1
    assert out["status"] == "fail"
    assert [w["relation"] for w in out["witnesses"]] == ["group_invertible(g1)",
                                                         "cross_relation"]
    assert out["witnesses"][1] == {"relation": "cross_relation",
                                   "detail": "c (z x - x z + b) = 1 fails",
                                   "entry": [0, 0], "lhs": "0", "rhs": "1"}
    assert "Traceback" not in err
    code, out, err = run(capsys, "module", "simple", str(path))
    assert code == 2
    assert "does not act invertibly" in out["facts"]["error"]


def _edited(edit):
    """argv of `module check` on the skew-vx file after edit(payload)."""
    def argv(payload, tmp_path, config_path):
        edit(payload)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(payload))
        return ["module", "check", str(path)]
    return argv


def _singular_c_in_other_presentation(payload):
    # skew mode writes Raw; a Normalized file needs c (= g1 here) to load
    payload["module"]["presentation"] = "Normalized"
    payload["module"]["generators"]["g1"][0] = ["0", "0", "0"]


MALFORMED = {
    "module-without-dim": (_edited(lambda p: p["module"].pop("dim")),
                           "module key 'dim' must be a positive integer"),
    "module-without-presentation": (_edited(lambda p: p["module"].pop("presentation")),
                                    "module key 'presentation'"),
    "module-without-generators": (_edited(lambda p: p["module"].pop("generators")),
                                  "module key 'generators' must be an object"),
    "module-is-a-list": (_edited(lambda p: p.update(module=[p["module"]])),
                         "module data must be an object"),
    "generator-is-an-int": (_edited(lambda p: p["module"]["generators"].update(x=5)),
                            "module generator 'x' must be a 3 x 3 matrix"),
    "other-presentation-singular-c": (_edited(_singular_c_in_other_presentation),
                                      "does not act invertibly"),
    "entry-zero-denominator": (
        _edited(lambda p: p["module"]["generators"]["x"][0].__setitem__(0, "1/0")),
        "zero denominator in '1/0'"),
    "param-zero-denominator": (
        lambda payload, tmp_path, config_path: [
            "module", "build", "skew-vx", config_path, "--params",
            json.dumps({"alpha": "1/0", "lam": [0, 0]})],
        "param 'alpha': zero denominator in '1/0'"),
    "induced-kvals-literal": (
        lambda payload, tmp_path, config_path: [
            "module", "build", "induced", config_path, "--params",
            json.dumps({"kvals": [{"coeffs": 5}, 1], "lam": []})],
        "param 'kvals[0]'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_module_input_exit_2(write_config, tmp_path, capsys, case):
    argv, message = MALFORMED[case]
    config_path = write_config(SKEW3)
    _, payload = build_module_file(capsys, tmp_path, config_path, "skew-vx",
                                   {"alpha": 1, "lam": [0, 0]}, "vx.json")
    code, out, err = run(capsys, *argv(payload, tmp_path, config_path))
    assert code == 2
    assert out["status"] == "error"
    assert message in out["facts"]["error"]
    assert "Traceback" not in err


def test_module_iso_config_mismatch(write_config, tmp_path, capsys):
    pa, _ = build_module_file(capsys, tmp_path, write_config(U1), "diff-vbar",
                              {"rho": [0]}, "a.json")
    pb, _ = build_module_file(capsys, tmp_path,
                              write_config(SKEW3, "skew.json"), "skew-vx",
                              {"alpha": 1, "lam": [0, 0]}, "b.json")
    code, _, err = run(capsys, "module", "iso", pa, pb)
    assert code == 2
    assert "different algebras" in err


def test_module_unknown_family(write_config, capsys):
    code, _, err = run(capsys, "module", "build", "nope", write_config(U1),
                       "--params", "{}")
    assert code == 2
    assert "unknown module family" in err


def test_module_bad_params(write_config, capsys):
    config_path = write_config(SKEW3)
    code, _, err = run(capsys, "module", "build", "skew-vx", config_path,
                       "--params", json.dumps({"alpha": 1}))
    assert code == 2
    assert "missing key 'lam'" in err
    code, _, err = run(capsys, "module", "build", "skew-vx", config_path,
                       "--params", json.dumps({"alpha": 0, "lam": [0, 0]}))
    assert code == 2
    assert "alpha must be nonzero" in err


@pytest.mark.parametrize("family, params", [
    ("torsion-char", {"lam": [math.inf, 0]}),
    ("torsion-char", {"lam": [-math.inf, 0]}),
    ("torsion-char", {"lam": [math.nan, 0]}),
    ("torsion-char", {"lam": [2.7, "1"]}),
    ("torsion-char", {"lam": [True, 0]}),
    ("torsion-char", {"lam": [[1], None]}),
    ("skew-vx", {"alpha": 1, "lam": [math.inf]}),
    ("skew-vx", {"alpha": 1, "lam": [0, "1"]}),
    ("skew-vxy", {"alpha_x": 1, "alpha_y": 1, "t": 1, "lam": [0, 1.0]}),
    ("induced", {"kvals": [1, 1], "lam": [False, 0]}),
    ("diff-vbar", {"rho": [0.0, 0]}),
    ("diff-vx", {"rho": [math.inf, 0], "lam": 1, "mu": 0}),
], ids=["inf", "-inf", "nan", "float-and-string", "bool", "list-and-null",
        "kernel-inf", "kernel-string", "kernel-float", "kernel-bool",
        "rho-float", "rho-inf"])
def test_module_build_rejects_non_integer_exponents(write_config, capsys, family,
                                                    params):
    # character exponents are JSON integers, as in config vectors: no
    # float, string or boolean is read as one, and infinity is no traceback
    config = diff_sweep_spec(3) if family.startswith("diff") else skew_sweep_spec(3)
    code, out, err = run(capsys, "module", "build", family,
                         write_config(config.config_dict()),
                         "--params", json.dumps(params))
    assert code == 2 and out["status"] == "error"
    assert "must be a list of integer exponents" in out["facts"]["error"]
    assert "Traceback" not in err


def test_module_classify_non_simple_exit_1(write_config, tmp_path, capsys):
    # a 1-dim module for the trivial character is simple, so tamper instead:
    # direct sum via two identical builds is not expressible through the CLI,
    # so classify a module file whose matrices were doubled by hand
    config_path = write_config(SKEW3)
    path, payload = build_module_file(
        capsys, tmp_path, config_path, "skew-vx",
        {"alpha": 1, "lam": [0, 0]}, "vx.json")
    mod = payload["module"]

    def double(rows):
        d = len(rows)
        zero = "0"
        out = [[zero] * (2 * d) for _ in range(2 * d)]
        for i in range(d):
            for j in range(d):
                out[i][j] = rows[i][j]
                out[d + i][d + j] = rows[i][j]
        return out

    doubled = dict(payload)
    doubled["module"] = {
        "dim": mod["dim"] * 2,
        "presentation": mod["presentation"],
        "spec_fingerprint": mod["spec_fingerprint"],
        "generators": {k: double(v) for k, v in mod["generators"].items()},
    }
    p2 = tmp_path / "doubled.json"
    p2.write_text(json.dumps(doubled))
    code, out, _ = run(capsys, "module", "classify", str(p2))
    assert code == 1
    assert "not certified simple" in out["facts"]["error"]


# ---------------------------------------------------------------------------
# a fuzz test of the module commands on edited module files


def _module_file(spec, module):
    return {"config": spec.config_dict(), "module": module.to_dict()}


def _skew_vx_file(n):
    spec = skew_sweep_spec(n)
    lam = SubgroupCharacter(spec.chi.kernel(), spec.conductor, [0, 1])
    return _module_file(spec, build_Vx_skew(spec.scalar(1), lam, spec))


def _diff_vx_file(n):
    spec = diff_sweep_spec(n)
    rho = Character(spec.group, spec.conductor, [0] * spec.group.ngens)
    return _module_file(spec, build_Vx_diff(rho, spec.scalar(2), spec.scalar(0), spec))


# valid files at dimensions 3, 2, 16 (the bound, conductor 16 with phi = 8)
# and 17 (just outside it)
MODULE_FILES = {"skew3": _skew_vx_file(3), "diff2": _diff_vx_file(2),
                "skew16": _skew_vx_file(16), "skew17": _skew_vx_file(17)}

_ENTRY_LITERALS = [
    "0", "1", "-1/2", 7, 10 ** 30, "1/" + "9" * 50, {"zeta_pow": 3},
    {"coeffs": [1, "1/2"]}, {"coeffs": list(range(40))},
    # bad literals
    "1/0", "0.5", "1e3000000", " 3", "", "x", "9" * 5000, {"zeta_pow": 2.5},
    {"coeffs": 5}, {"coeffs": ["x"]}, {"coeffs": None}, {"coeffs": {"a": 1}}, {},
    [1], None, True, 1.5]

_MODULE_EDITS = st.one_of(
    st.tuples(st.just("dim"), st.sampled_from(
        [0, -1, 1, 2, 16, 17, 10 ** 6, "3", True, None, 2.5, []])),
    st.tuples(st.just("entry"), st.integers(0, 5), st.integers(0, 20),
              st.integers(0, 20), st.sampled_from(_ENTRY_LITERALS)),
    st.tuples(st.sampled_from(["drop-row", "add-row", "short-row", "long-row",
                               "drop-generator", "generator-not-a-list",
                               "row-not-a-list"]), st.integers(0, 5)),
    st.tuples(st.just("extra-generator"), st.sampled_from(["g9", "w"])),
    st.tuples(st.just("fingerprint"), st.sampled_from(["0" * 16, "", 5, None, "pop"])),
    st.tuples(st.just("presentation"), st.sampled_from(["Raw", "Normalized", "raw", 3])),
    st.tuples(st.just("config"), st.sampled_from(
        ["double-conductor", "beta", "drop-chi", "not-an-object", "drop"])),
    st.tuples(st.just("file"), st.sampled_from(
        ["list", "drop-module", "module-list", "generators-list"])))


def _edit_module_file(payload, edit):
    """payload after one edit; in place while it is an object."""
    kind, arg, *rest = edit
    if not isinstance(payload, dict):
        return payload
    module, config = payload.get("module"), payload.get("config")
    if kind == "file":
        if arg == "list":
            return [payload]
        if arg == "drop-module":
            payload.pop("module", None)
        elif arg == "module-list":
            payload["module"] = [module]
        elif isinstance(module, dict):
            module["generators"] = [module.get("generators")]
    elif kind == "config":
        if not isinstance(config, dict):
            pass
        elif arg == "double-conductor":
            config["conductor"] *= 2
        elif arg == "beta":
            config["beta"] = 1
        elif arg == "drop-chi":
            config.pop("chi", None)
        elif arg == "not-an-object":
            payload["config"] = [config]
        else:
            del payload["config"]
    elif not isinstance(module, dict):
        pass
    elif kind in ("dim", "presentation"):
        module[kind] = arg
    elif kind == "fingerprint":
        if arg == "pop":
            module.pop("spec_fingerprint", None)
        else:
            module["spec_fingerprint"] = arg
    elif isinstance(module.get("generators"), dict) and module["generators"]:
        _edit_generators(module["generators"], kind, arg, rest)
    return payload


def _edit_generators(gens, kind, arg, rest):
    if kind == "extra-generator":
        gens[arg] = [["1"]]
        return
    name = sorted(gens)[arg % len(gens)]
    rows = gens[name]
    if kind == "drop-generator":
        del gens[name]
    elif kind == "generator-not-a-list":
        gens[name] = "I"
    elif not isinstance(rows, list) or not rows:
        pass
    elif kind == "entry":
        row = rows[rest[0] % len(rows)]
        if isinstance(row, list) and row:
            row[rest[1] % len(row)] = rest[2]
    elif kind == "drop-row":
        rows.pop()
    elif kind == "add-row":
        rows.append(copy.copy(rows[-1]))
    elif kind == "row-not-a-list":
        rows[0] = "0"
    elif kind == "short-row" and isinstance(rows[-1], list) and rows[-1]:
        rows[-1].pop()
    elif kind == "long-row" and isinstance(rows[-1], list):
        rows[-1].append("0")


@pytest.fixture(scope="module")
def module_fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("module-fuzz")


@settings(max_examples=80, deadline=None)
@given(base=st.sampled_from(sorted(MODULE_FILES)),
       command=st.sampled_from(["check", "simple", "classify"]),
       edits=st.lists(_MODULE_EDITS, max_size=3))
def test_module_commands_fuzz(module_fuzz_dir, base, command, edits):
    payload = copy.deepcopy(MODULE_FILES[base])
    for edit in edits:
        payload = _edit_module_file(payload, edit)
    path = module_fuzz_dir / "module.json"
    path.write_text(json.dumps(payload))
    code, report = contract_run(["module", command, str(path)])
    assert report["status"] == STATUS[code], edits


# dim-16 pairs are left out: one intertwiner space there takes seconds
@settings(max_examples=80, deadline=None)
@given(bases=st.sampled_from([("skew3", "skew3"), ("diff2", "diff2"),
                              ("skew3", "diff2"), ("skew17", "skew17")]),
       edits=st.tuples(st.lists(_MODULE_EDITS, max_size=2),
                       st.lists(_MODULE_EDITS, max_size=2)))
def test_module_iso_fuzz(module_fuzz_dir, bases, edits):
    paths = []
    for side, (base, side_edits) in enumerate(zip(bases, edits)):
        payload = copy.deepcopy(MODULE_FILES[base])
        for edit in side_edits:
            payload = _edit_module_file(payload, edit)
        paths.append(module_fuzz_dir / f"iso-{side}.json")
        paths[-1].write_text(json.dumps(payload))
    code, report = contract_run(["module", "iso"] + [str(p) for p in paths])
    assert report["status"] == STATUS[code], edits


# params that build a module of each family on the skew config (families
# named skew- and induced) or the diff config (families named diff-)
BUILD_PARAMS = {
    "torsion-char": {"lam": [0, 0]},
    "skew-vx": {"alpha": 1, "lam": [0, 1]},
    "skew-vy": {"alpha": "1/2", "lam": [1, 0]},
    "skew-vxy": {"alpha_x": 1, "alpha_y": -1, "t": 1, "lam": [0, 1]},
    "induced": {"kvals": [1, 2], "lam": [0, 0]},
    "diff-vbar": {"rho": [1, 0]},
    "diff-vx": {"rho": [0, 0], "lam": 1, "mu": 0},
    "diff-vy": {"rho": [0, 0], "lam": 0, "mu": 1},
}
BUILD_CONFIGS = {"skew": skew_sweep_spec(3).config_dict(),
                 "diff": diff_sweep_spec(3).config_dict()}

# ints, floats with infinities and NaN, strings, booleans, null and lists
_PARAM_VALUES = st.recursive(
    st.one_of(st.integers(-10, 10), st.integers(), st.floats(),
              st.sampled_from(["1", "1/2", "0", "zeta", ""]), st.text(max_size=6),
              st.booleans(), st.none(), st.just({"zeta_pow": 1})),
    lambda inner: st.lists(inner, max_size=4), max_leaves=8)

_PARAM_EDITS = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 5), _PARAM_VALUES),
    st.tuples(st.just("drop"), st.integers(0, 5), st.none()),
    st.tuples(st.just("extra"), st.sampled_from(["beta", "n", "", "LAM"]), _PARAM_VALUES))


def _edit_params(params, edit):
    kind, arg, value = edit
    if kind == "extra":
        params[arg] = value
    elif params:
        key = sorted(params)[arg % len(params)]
        if kind == "set":
            params[key] = value
        else:
            del params[key]


@pytest.fixture(scope="module")
def build_fuzz_configs(tmp_path_factory):
    root = tmp_path_factory.mktemp("build-fuzz")
    for name, data in BUILD_CONFIGS.items():
        (root / f"{name}.json").write_text(json.dumps(data))
    return {name: str(root / f"{name}.json") for name in BUILD_CONFIGS}


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(sorted(BUILD_PARAMS)),
       config=st.sampled_from(sorted(BUILD_CONFIGS)),
       edits=st.lists(_PARAM_EDITS, max_size=3))
def test_module_build_fuzz(build_fuzz_configs, family, config, edits):
    params = copy.deepcopy(BUILD_PARAMS[family])
    for edit in edits:
        _edit_params(params, edit)
    argv = ["module", "build", family, build_fuzz_configs[config],
            "--params", json.dumps(params)]
    code, payload = contract_run(argv)
    if code == 0:
        # a module file, which module check reads back
        assert sorted(payload) == ["config", "family", "module", "params"], argv
    else:
        assert payload["status"] == STATUS[code], argv


# ---------------------------------------------------------------------------
# catalog


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert out["facts"]["entries"] == ["diff-z2", "fantino-garcia", "klein",
                                       "skew-z2", "taft", "u1", "wwt"]


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_entry(capsys, name):
    # run parses stdout as exactly one JSON object
    code, out, _ = run(capsys, "catalog", name)
    assert code == 0 and out["status"] == "pass"
    assert out["facts"]["name"] == name
    assert out["facts"]["spec"] == catalog_entry(name).spec.config_dict()


def test_catalog_unknown(capsys):
    code, _, err = run(capsys, "catalog", "nope")
    assert code == 2
    assert "unknown catalog entry" in err


# ---------------------------------------------------------------------------
# one process per call: the layers a subcommand runs, a closed stdout

SRC = Path(__file__).resolve().parent.parent / "src"


def _layers_run(argv):
    """The orehopf layers that have run after main(argv), in a fresh
    interpreter started with -S and with src/ as PYTHONPATH."""
    probe = ("import contextlib, io, sys, types\nfrom orehopf.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    code = main({argv!r})\n"
             "print(code, *sorted(n[8:] for n, m in sys.modules.items()\n"
             "      if n.startswith('orehopf.') and n != 'orehopf.cli'\n"
             "      and type(m) is types.ModuleType))\n")
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                         text=True, check=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=str(SRC)))
    code, *layers = out.stdout.split()
    assert code == "0", (argv, out.stdout)
    return set(layers)


ALGEBRA = {"abgroup", "cyclotomic", "hopfcore", "report"}


@pytest.mark.parametrize("argv, extra", [
    (["validate", "{config}"], set()),
    (["hopf-check", "{config}", "--samples", "1", "--max-degree", "1"], set()),
    (["nf", "{config}", "x*y + 2"], {"exprparse"}),
    (["module", "check", "{module}"], {"reps", "linalg"}),
    (["catalog", "u1"], {"catalog"}),
    (["catalog", "taft"], {"catalog", "quotient"}),
], ids=["validate", "hopf-check", "nf", "module-check", "catalog-u1", "catalog-taft"])
def test_each_call_runs_only_the_layers_it_uses(tmp_path, argv, extra):
    config = tmp_path / "u1.json"
    config.write_text(json.dumps({k: v for k, v in U1.items() if k != "quotient"}))
    module = tmp_path / "module.json"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["module", "build", "torsion-char", str(config),
                     "--params", '{"lam": [1]}']) == 0
    module.write_text(out.getvalue())
    argv = [arg.format(config=config, module=module) for arg in argv]
    assert _layers_run(argv) == ALGEBRA | extra


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_2_with_one_error_line(unbuffered):
    # the read end is closed before the child starts, so its first write to
    # stdout (unbuffered) or its flush (buffered) fails: no race
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run([sys.executable, "-m", "orehopf.cli", "catalog", "u1"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: standard output is closed\n"
