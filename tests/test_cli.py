"""CLI surface: exit codes, determinism, round-trips."""
import json
import subprocess
import sys

import pytest

from hopfsplit.cli import main
from hopfsplit.serialize import (
    MAX_DIM, FileFormatError, dumps, loads, object_from_json, object_to_json, read_file, subspace_from_json,
)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_example_and_validate(tmp_path, capsys):
    path = str(tmp_path / "z2.json")
    code, out, _ = run_cli(["example", "group_algebra", "--n", "2", "--field", "q", "--out", path], capsys)
    assert code == 0
    code, out, _ = run_cli(["validate", path], capsys)
    assert code == 0
    assert "antipode: ok" in out


def test_separable_exit_codes(tmp_path, capsys):
    p1 = str(tmp_path / "z2q.json")
    run_cli(["example", "group_algebra", "--n", "2", "--field", "q", "--out", p1], capsys)
    code, out, _ = run_cli(["separable", p1, "--ctx", "vect"], capsys)
    assert code == 0
    assert "1/2" in out
    p2 = str(tmp_path / "z2f2.json")
    run_cli(["example", "group_algebra", "--n", "2", "--field", "fp:2", "--out", p2], capsys)
    code, out, err = run_cli(["separable", p2, "--ctx", "vect"], capsys)
    assert code == 1


def test_separable_in_a_comodule_context(tmp_path, capsys):
    # K[Z2] as a (bi)comodule algebra over itself, coacting by Delta: the
    # Casimir element (1 (x) 1 + g (x) g) / 2 is coinvariant
    aux = {"field": {"kind": "Q"}, "dim": 2, "basis": ["1", "g"],
           "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"]],
           "unit": ["1", "0"], "comul": [[0, 0, 0, "1"], [1, 1, 1, "1"]], "counit": ["1", "1"],
           "antipode": [["1", "0"], ["0", "1"]]}
    comul = [[0, 0, "1"], [3, 1, "1"]]  # Delta as matrix triples [row, col, coeff]
    alg = {key: aux[key] for key in ("field", "dim", "basis", "mul", "unit")}
    alg["structures"] = {"coact_r": comul, "coact_l": comul}
    (tmp_path / "aux.json").write_text(json.dumps(aux))
    (tmp_path / "alg.json").write_text(json.dumps(alg))
    for ctx in ("comod", "bicomod"):
        code, out, err = run_cli(["--json", "separable", str(tmp_path / "alg.json"), "--ctx", ctx,
                                  "--aux", str(tmp_path / "aux.json")], capsys)
        assert code == 0, err
        assert json.loads(out) == {"idempotent": [[0, 0, "1/2"], [1, 1, "1/2"]], "separable": True}


def test_malformed_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["validate", str(bad)], capsys)
    assert code == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"field": {"kind": "Q"}, "dim": 2, "mul": [[0, 0, 7, "1"]], "unit": ["1", "0"]}))
    code, _, err = run_cli(["validate", str(bad2)], capsys)
    assert code == 2


def test_round_trip_byte_identical(tmp_path, capsys):
    path = tmp_path / "h4.json"
    run_cli(["example", "sweedler_h4", "--field", "q", "--out", str(path)], capsys)
    text1 = path.read_text()
    obj = object_from_json(loads(text1))
    text2 = dumps(object_to_json(obj))
    assert text1 == text2


def test_json_flag_stable(tmp_path, capsys):
    path = str(tmp_path / "z3.json")
    run_cli(["example", "group_algebra", "--n", "3", "--field", "q", "--out", path], capsys)
    code, out1, _ = run_cli(["--json", "integral", path], capsys)
    code, out2, _ = run_cli(["--json", "integral", path], capsys)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["normalized"] is True


def test_radical_and_coradical_commands(tmp_path, capsys):
    path = str(tmp_path / "h4.json")
    run_cli(["example", "sweedler_h4", "--field", "q", "--out", path], capsys)
    code, out, _ = run_cli(["--json", "radical", path], capsys)
    assert code == 0 and json.loads(out)["dim"] == 2
    code, out, _ = run_cli(["--json", "coradical", path], capsys)
    assert code == 0 and json.loads(out)["dim"] == 2
    code, out, _ = run_cli(["--json", "filtration", path], capsys)
    assert code == 0 and json.loads(out)["dims"] == [2, 4]


def test_hochschild_command(tmp_path, capsys):
    apath = str(tmp_path / "dual.json")
    doc = {
        "field": {"kind": "Q"}, "dim": 2, "basis": ["1", "x"],
        "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]],
        "unit": ["1", "0"],
    }
    (tmp_path / "dual.json").write_text(json.dumps(doc))
    cpath = str(tmp_path / "coeff.json")
    # regular bimodule of the dual numbers
    coeff = {
        "dim": 2,
        "act_l": [[0, 0, "1"], [1, 1, "1"], [1, 2, "1"]],
        "act_r": [[0, 0, "1"], [1, 1, "1"], [1, 2, "1"]],
    }
    (tmp_path / "coeff.json").write_text(json.dumps(coeff))
    for deg, expect in ((0, 2), (1, 1), (2, 1)):
        code, out, _ = run_cli(["--json", "hochschild", apath, "--coeff", cpath,
                                "--degree", str(deg), "--ctx", "vect"], capsys)
        assert code == 0
        assert json.loads(out)["dimension"] == expect


def test_split_command_radical(tmp_path, capsys):
    hpath = str(tmp_path / "h4.json")
    run_cli(["example", "sweedler_h4", "--field", "q", "--out", hpath], capsys)
    cand = {
        "field": {"kind": "Q"}, "ambient_dim": 4,
        "vectors": [["0", "1", "0", "0"], ["0", "0", "0", "1"]],
    }
    cpath = tmp_path / "cand.json"
    cpath.write_text(json.dumps(cand))
    rpath = str(tmp_path / "report.json")
    code, out, err = run_cli(["split", hpath, "--side", "radical", "--candidate", str(cpath),
                              "--level", "bicomodule", "--out", rpath], capsys)
    assert code == 0, err
    report = read_file(rpath)
    assert report["side"] == "radical"
    assert all(report["checks"].values())


def test_bosonize_command_roundtrip(tmp_path, capsys):
    # extract the H4 quadruple via the pipeline, serialize, re-bosonize
    from hopfsplit.builtin import sweedler_h4
    from hopfsplit.fields import QQ
    from hopfsplit.linalg import Subspace
    from hopfsplit.pipeline import run_radical_pipeline
    from hopfsplit.serialize import quadruple_to_json, write_file
    from hopfsplit.tensors import v_basis

    h4 = sweedler_h4(QQ)
    rep = run_radical_pipeline(h4, Subspace.from_vectors(QQ, 4, [v_basis(QQ, 4, 1), v_basis(QQ, 4, 3)]))
    qpath = str(tmp_path / "quad.json")
    write_file(qpath, quadruple_to_json(rep.quadruple))
    out_path = str(tmp_path / "boso.json")
    code, out, err = run_cli(["bosonize", qpath, "--out", out_path], capsys)
    assert code == 0, err
    doc = read_file(out_path)
    assert doc["dim"] == 4


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "hopfsplit.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "split" in proc.stdout


def test_quadruple_envelope_roundtrip(tmp_path):
    from hopfsplit.builtin import sweedler_h4
    from hopfsplit.fields import QQ
    from hopfsplit.linalg import Subspace
    from hopfsplit.pipeline import run_radical_pipeline
    from hopfsplit.serialize import dumps, quadruple_from_json, quadruple_to_json
    from hopfsplit.tensors import v_basis

    h4 = sweedler_h4(QQ)
    rep = run_radical_pipeline(h4, Subspace.from_vectors(QQ, 4, [v_basis(QQ, 4, 1), v_basis(QQ, 4, 3)]))
    doc = quadruple_to_json(rep.quadruple)
    text1 = dumps(doc)
    q2 = quadruple_from_json(json.loads(text1))
    text2 = dumps(quadruple_to_json(q2))
    assert text1 == text2
    assert q2.validate().ok


def test_hochschild_comodule_context(tmp_path, capsys):
    # dual numbers with trivial coactions over K[Z2]: same dimensions as Vect
    aux = {"field": {"kind": "Q"}, "dim": 2, "basis": ["1", "g"],
           "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"]],
           "unit": ["1", "0"],
           "comul": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
           "counit": ["1", "1"],
           "antipode": [["1", "0"], ["0", "1"]]}
    (tmp_path / "aux.json").write_text(json.dumps(aux))
    # matrix triples are [row, col, coeff]: rho_r(e_v) = e_v (x) 1 has rows
    # v*dh + 0; rho_l(e_v) = 1 (x) e_v has rows 0*dim + v
    trivial_coact_r = [[0, 0, "1"], [2, 1, "1"]]
    trivial_coact_l = [[0, 0, "1"], [1, 1, "1"]]
    alg = {"field": {"kind": "Q"}, "dim": 2, "basis": ["1", "x"],
           "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]],
           "unit": ["1", "0"],
           "structures": {"coact_r": trivial_coact_r, "coact_l": trivial_coact_l}}
    (tmp_path / "alg.json").write_text(json.dumps(alg))
    coeff = {"dim": 2,
             "act_l": [[0, 0, "1"], [1, 1, "1"], [1, 2, "1"]],
             "act_r": [[0, 0, "1"], [1, 1, "1"], [1, 2, "1"]],
             "structures": {"coact_r": trivial_coact_r, "coact_l": trivial_coact_l}}
    (tmp_path / "coeff.json").write_text(json.dumps(coeff))
    code, out, err = run_cli(["--json", "hochschild", str(tmp_path / "alg.json"),
                              "--coeff", str(tmp_path / "coeff.json"),
                              "--degree", "2", "--ctx", "comod",
                              "--aux", str(tmp_path / "aux.json")], capsys)
    assert code == 0, err
    assert json.loads(out)["dimension"] == 1


def test_split_command_coradical_h4(tmp_path, capsys):
    hpath = str(tmp_path / "h4.json")
    run_cli(["example", "sweedler_h4", "--field", "q", "--out", hpath], capsys)
    cand = {"field": {"kind": "Q"}, "ambient_dim": 4,
            "vectors": [["1", "0", "0", "0"], ["0", "0", "1", "0"]]}
    cpath = tmp_path / "corad.json"
    cpath.write_text(json.dumps(cand))
    rpath = str(tmp_path / "report.json")
    code, out, err = run_cli(["split", hpath, "--side", "coradical", "--candidate", str(cpath),
                              "--level", "bicomodule", "--out", rpath], capsys)
    assert code == 0, err
    report = read_file(rpath)
    assert report["side"] == "coradical"
    assert all(report["checks"].values())
    assert all(report["filtration_checks"].values())
    # the quadruple envelope carries the xi triples
    assert "xi" in report["quadruple"]


def test_radical_coradical_with_candidate_flags(tmp_path, capsys):
    hpath = str(tmp_path / "h4.json")
    run_cli(["example", "sweedler_h4", "--field", "q", "--out", hpath], capsys)
    rad_cand = {"field": {"kind": "Q"}, "ambient_dim": 4,
                "vectors": [["0", "1", "0", "0"], ["0", "0", "0", "1"]]}
    (tmp_path / "rad.json").write_text(json.dumps(rad_cand))
    code, out, _ = run_cli(["--json", "radical", hpath, "--candidate", str(tmp_path / "rad.json")], capsys)
    assert code == 0 and json.loads(out)["dim"] == 2
    cor_cand = {"field": {"kind": "Q"}, "ambient_dim": 4,
                "vectors": [["1", "0", "0", "0"], ["0", "0", "1", "0"]]}
    (tmp_path / "cor.json").write_text(json.dumps(cor_cand))
    code, out, _ = run_cli(["--json", "coradical", hpath, "--candidate", str(tmp_path / "cor.json")], capsys)
    assert code == 0 and json.loads(out)["dim"] == 2
    # a non-coradical candidate is rejected with exit 1
    bad = {"field": {"kind": "Q"}, "ambient_dim": 4, "vectors": [["1", "0", "0", "0"]]}
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    code, _, err = run_cli(["coradical", hpath, "--candidate", str(tmp_path / "bad.json")], capsys)
    assert code == 1


def test_bosonize_dual_command(tmp_path, capsys):
    from hopfsplit.builtin import sweedler_h4
    from hopfsplit.fields import QQ
    from hopfsplit.linalg import Subspace
    from hopfsplit.pipeline import run_coradical_pipeline
    from hopfsplit.serialize import quadruple_to_json, write_file
    from hopfsplit.tensors import v_basis

    h4 = sweedler_h4(QQ)
    rep = run_coradical_pipeline(h4, Subspace.from_vectors(QQ, 4, [v_basis(QQ, 4, 0), v_basis(QQ, 4, 2)]))
    qpath = str(tmp_path / "quad.json")
    write_file(qpath, quadruple_to_json(rep.quadruple))
    out_path = str(tmp_path / "boso.json")
    code, out, err = run_cli(["bosonize", qpath, "--dual", "--out", out_path], capsys)
    assert code == 0, err
    # forgetting --dual on a dual envelope is an input error
    code, _, _ = run_cli(["bosonize", qpath, "--out", out_path], capsys)
    assert code == 2


DUAL_NUMBERS = {"field": {"kind": "Q"}, "dim": 2, "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]],
                "unit": ["1", "0"]}


@pytest.mark.parametrize("edit", [
    {"unit": ["abc", "0"]},
    {"unit": ["1/0", "0"]},
    {"field": {"kind": "Fp", "p": 7}, "unit": ["1/7", "0"]},
    {"mul": None},
    {"mul": [[0, 0, 0, "1"], [0, True, 1, "1"], [1, 0, 1, "1"]]},
    {"mul": [[0, 0, 0, "1"], [0, 1, 1, 0.5], [1, 0, 1, "1"]]},
    {"unit": ["1.0", "0"]},
    {"mul": [[0, 0, 0, "1"], [0, 1, 1, "0.5e1"], [1, 0, 1, "1"]]},
    {"dim": 10**12, "basis": ["a", "b"]},
], ids=["unit_abc", "q_div_by_zero", "f7_div_by_p", "mul_null", "bool_index", "float_coefficient",
        "q_float_string", "q_exponent_string", "dim_above_cap"])
def test_malformed_probe_exits_2_with_one_line(tmp_path, capsys, edit):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({**DUAL_NUMBERS, **edit}))
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["group_algebra", "--field", "fp:abc"], "cannot parse field 'fp:abc'"),
    (["group_algebra", "--field", "fp:"], "cannot parse field 'fp:'"),
    (["group_algebra", "--field", "fp:4"], "modulus 4 is not a prime"),
    (["group_algebra", "--field", "fp:1"], "modulus 1 is not a prime"),
    (["group_algebra", "--field", "f4"], "modulus 4 is not a prime"),
    (["taft", "--n", "0", "--field", "fp:7"], "--n must be a positive integer, not 0"),
    (["taft", "--n", "5", "--field", "fp:7"], "field has no primitive 5-th root of unity"),
    (["ha", "--p", "3", "--field", "fp:5"], "field has no primitive 3-th root of unity"),
    (["group_algebra", "--n", "-2"], "--n must be a positive integer, not -2"),
    (["group_algebra", "--n", "0"], "--n must be a positive integer, not 0"),
    (["dual_group_algebra", "--n", "0"], "--n must be a positive integer, not 0"),
    (["ha", "--p", "1", "--field", "fp:7"], "--p must be an odd prime, not 1"),
    (["ha", "--p", "9", "--field", "fp:19"], "--p must be an odd prime, not 9"),
    (["ha", "--p", "5", "--field", "fp:11"], "ha of dimension 625 exceeds the largest supported dimension 256"),
    (["group_algebra", "--n", "100000"], "group_algebra of dimension 100000 exceeds"),
    (["taft", "--n", "3", "--field", "fp:7", "--lam", "abc"], "--lam: 'abc' is not an integer"),
    (["taft", "--n", "3", "--field", "fp:7", "--lam", "1/7"], "--lam: inverse of zero"),
    (["taft", "--n", "3", "--field", "fp:7", "--lam", "1"], "--lam 1 is not a primitive 3-th root of unity"),
    (["ha", "--p", "3", "--field", "fp:7", "--a", "0"], "--a must be nonzero"),
    (["ha", "--p", "3", "--field", "fp:7", "--a", "x"], "--a: 'x' is not an integer"),
    (["sweedler_h4", "--field", "fp:2"], "field has no primitive 2-th root of unity"),
], ids=["fp_abc", "fp_empty", "fp_4", "fp_1", "f4", "taft_n0", "taft_no_root", "ha_no_root",
        "group_n_negative", "group_n0", "dual_group_n0", "ha_p1", "ha_p9", "ha_above_max_dim",
        "group_above_max_dim", "lam_abc", "lam_div_by_p", "lam_not_primitive", "a_zero", "a_x",
        "h4_char_2"])
def test_malformed_example_parameters_exit_2_with_one_line(tmp_path, capsys, argv, message):
    out_path = tmp_path / "never.json"
    code, out, err = run_cli(["example", *argv, "--out", str(out_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert message in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["group_algebra", "--n", "1", "--field", "q"],
    ["group_algebra", "--n", "1", "--field", "fp:7"],
    ["group_algebra", "--n", "1", "--field", "f7"],
    ["group_algebra", "--n", "1", "--field", "FP:7"],
    ["group_algebra", "--n", "256", "--field", "fp:2"],
    ["taft", "--n", "3", "--field", "fp:7", "--lam", "2"],
    ["ha", "--p", "3", "--field", "fp:7", "--lam", "4", "--a", "-1"],
])
def test_example_parameters_at_their_bounds_still_build(tmp_path, capsys, argv):
    code, out, err = run_cli(["example", *argv, "--out", str(tmp_path / "x.json")], capsys)
    assert (code, err) == (0, "")


def test_dim_bound_checked_before_anything_is_built():
    # every value here is cheap to parse even without the bound: an explicit
    # basis keeps a huge dim from materializing labels, so a missing bound
    # fails the match instead of allocating
    n = MAX_DIM + 1
    cases = [
        (object_from_json, {**DUAL_NUMBERS, "dim": n, "basis": [f"e{i}" for i in range(n)], "unit": ["0"] * n}),
        (object_from_json, {**DUAL_NUMBERS, "dim": 10**12, "basis": ["a", "b"]}),
        (subspace_from_json, {"field": {"kind": "Q"}, "ambient_dim": 10**12, "vectors": []}),
    ]
    for parse, doc in cases:
        with pytest.raises(FileFormatError, match="exceeds the largest supported dimension"):
            parse(doc)
    assert object_from_json({**DUAL_NUMBERS, "dim": 2}).dim == 2


def test_parser_built_once_with_unchanged_usage_errors(tmp_path, capsys):
    from hopfsplit import cli

    assert cli._parser() is cli._parser()
    for argv in (["integral"], ["frobnicate"], ["split", "x", "--side", "middle", "--candidate", "c"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)
        assert capsys.readouterr().err == err
        assert err.startswith("usage: hopfsplit")
    # options of one call do not carry over to the next
    path = str(tmp_path / "z2.json")
    run_cli(["example", "group_algebra", "--n", "2", "--field", "q", "--out", path], capsys)
    code, out, _ = run_cli(["--json", "validate", path], capsys)
    assert code == 0 and out.startswith("{")
    code, out, _ = run_cli(["validate", path], capsys)
    assert code == 0 and not out.startswith("{")


def _non_associative_taft3(tmp_path, capsys):
    """T_3 over F_7 with g.x changed from e4 to 2 e4, and the radical J of
    T_3 as a candidate file; returns (structure path, candidate path)."""
    path = tmp_path / "t3.json"
    run_cli(["example", "taft", "--n", "3", "--field", "fp:7", "--out", str(path)], capsys)
    doc = json.loads(path.read_text())
    for t in doc["mul"]:
        if t[:3] == [3, 1, 4]:
            t[3] = "2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    cand = tmp_path / "j.json"
    cand.write_text(json.dumps({"field": {"kind": "Fp", "p": 7}, "ambient_dim": 9,
                                "vectors": [["1" if j == i else "0" for j in range(9)] for i in range(9) if i % 3]}))
    return bad, cand


def test_radical_refuses_a_non_associative_algebra(tmp_path, capsys):
    # validate names the associativity failure, and radical --candidate
    # must not certify J
    bad, cand = _non_associative_taft3(tmp_path, capsys)
    code, out, _ = run_cli(["validate", str(bad)], capsys)
    assert code == 1
    assert "algebra:associativity: FAIL (e1*e3)*e1 != e1*(e3*e1)" in out.splitlines()
    for argv in (["radical", str(bad), "--candidate", str(cand)], ["radical", str(bad)]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err == ("CertificationFailed: radical certification failed: "
                       "algebra associativity: (e1*e3)*e1 != e1*(e3*e1)\n")


def test_split_validates_its_input_first(tmp_path, capsys):
    # split names the input's own associativity failure on either side,
    # not a failure of a structure derived from it (the quotient A/J used
    # to fail at (e2*e1)*e2)
    bad, cand = _non_associative_taft3(tmp_path, capsys)
    for side in ("radical", "coradical"):
        code, out, err = run_cli(["split", str(bad), "--side", side, "--candidate", str(cand)], capsys)
        assert (code, out) == (1, "")
        assert err == ("CertificationFailed: split input certification failed: "
                       "bialgebra algebra:associativity: (e1*e3)*e1 != e1*(e3*e1)\n")


def test_coradical_and_filtration_refuse_a_non_coassociative_coalgebra(tmp_path, capsys):
    # 1, x, y, z over Q with x primitive, Delta y = 1(x)y + y(x)1 + x(x)x and
    # Delta z = 1(x)z + z(x)1 + y(x)x: (Delta (x) id) Delta z has x(x)x(x)x
    # and (id (x) Delta) Delta z does not
    comul = [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [0, 2, 2, "1"], [2, 0, 2, "1"], [1, 1, 2, "1"],
             [0, 3, 3, "1"], [3, 0, 3, "1"], [2, 1, 3, "1"]]
    co = tmp_path / "co.json"
    co.write_text(json.dumps({"field": {"kind": "Q"}, "dim": 4, "basis": ["1", "x", "y", "z"],
                              "comul": comul, "counit": ["1", "0", "0", "0"]}))
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"field": {"kind": "Q"}, "ambient_dim": 4, "vectors": [["1", "0", "0", "0"]]}))
    code, out, _ = run_cli(["validate", str(co)], capsys)
    assert (code, out) == (1, "shape: ok\ncoassociativity: FAIL basis element 3\n")
    for cmd in ("coradical", "filtration"):
        for argv in ([cmd, str(co), "--candidate", str(one)], [cmd, str(co)]):
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (1, "")
            assert err == "CertificationFailed: coalgebra coassociativity: basis element 3\n"


def _taft3_without(tmp_path, capsys, *keys):
    """The Taft T_3 file over F_7 with the given keys removed."""
    full = tmp_path / "t3.json"
    run_cli(["example", "taft", "--n", "3", "--field", "fp:7", "--out", str(full)], capsys)
    doc = {k: v for k, v in json.loads(full.read_text()).items() if k not in keys}
    path = tmp_path / ("t3_no_" + "_".join(keys) + ".json")
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("dropped, argv, message", [
    (("comul", "counit", "antipode"), ["coradical"], "coradical needs a coalgebra"),
    (("comul", "counit", "antipode"), ["filtration"], "filtration needs a coalgebra"),
    (("mul", "unit", "antipode"), ["radical"], "radical needs an algebra"),
    (("mul", "unit", "antipode"), ["separable", "--ctx", "vect"], "separable needs an algebra"),
])
def test_command_on_the_wrong_kind_of_structure_exits_2(tmp_path, capsys, dropped, argv, message):
    # these used to raise AttributeError ('CoalgebraObject' object has no
    # attribute '_shape_ok', ... has no attribute 'constants'): a traceback
    # and exit 1
    path = _taft3_without(tmp_path, capsys, *dropped)
    code, out, err = run_cli([argv[0], str(path)] + argv[1:], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("label", [None, 5, ["e0"]])
@pytest.mark.parametrize("command", ["validate", "coradical", "filtration"])
def test_a_basis_label_that_is_not_a_string_exits_2(tmp_path, capsys, label, command):
    # a null label used to pass `validate` (exit 0) and make `coradical` and
    # `filtration` raise AttributeError from the dual's labels
    full = _taft3_without(tmp_path, capsys)
    doc = json.loads(full.read_text())
    doc["basis"][1] = label
    full.write_text(json.dumps(doc))
    code, out, err = run_cli([command, str(full)], capsys)
    assert (code, out) == (2, "")
    assert err == f"input error: basis label {label!r} is not a string\n"


@pytest.mark.parametrize("argv", [
    ["radical"], ["split", "--side", "radical"],
    ["coradical"], ["filtration"], ["split", "--side", "coradical"],
], ids=["radical", "split_radical", "coradical", "filtration", "split_coradical"])
@pytest.mark.parametrize("key, value, message", [
    ("ambient_dim", 9, "subspace ambient_dim 9 for a structure of dim 4"),
    ("field", {"kind": "Fp", "p": 7}, "subspace over GF(7) for a structure over QQ"),
], ids=["dim", "field"])
def test_a_candidate_that_does_not_match_its_structure_exits_2(tmp_path, capsys, argv, key, value, message):
    # a candidate's own field or ambient_dim used to replace the structure's:
    # dim 9 failed later with exit 1 (`subspace of K^9 in a 4-dim algebra`,
    # `factor dims (9,) do not match map input (4,)`), and an F_7 candidate
    # was checked against the Q structure, exit 1
    hpath = str(tmp_path / "h4.json")
    run_cli(["example", "sweedler_h4", "--field", "q", "--out", hpath], capsys)
    cand = {"field": {"kind": "Q"}, "ambient_dim": 4, "vectors": [["0", "1", "0", "0"]]}
    if key == "ambient_dim":
        cand["vectors"] = [["0", "1"] + ["0"] * 7]
    cand[key] = value
    cpath = tmp_path / "cand.json"
    cpath.write_text(json.dumps(cand))
    code, out, err = run_cli([argv[0], hpath, *argv[1:], "--candidate", str(cpath)], capsys)
    assert (code, out) == (2, "")
    assert err == f"input error: {message}\n"


@pytest.mark.parametrize("message", ["Unable to allocate 1.46 GiB for an array with shape (196612633,) and data type int64",
                                     ""], ids=["numpy_message", "bare"])
def test_memory_exhaustion_exits_2_with_one_line(tmp_path, capsys, monkeypatch, message):
    """A command that runs out of memory (as the Delta join of a dense-basis
    T_4 file can) exits 2 with one line on stderr and no traceback."""
    from hopfsplit.hopf import BialgebraObject

    path = str(tmp_path / "t3.json")
    run_cli(["example", "taft", "--n", "3", "--field", "fp:7", "--out", path], capsys)

    def exhausted(self, gens):
        raise MemoryError(message)

    monkeypatch.setattr(BialgebraObject, "_check_delta_on_generators", exhausted)
    code, out, err = run_cli(["validate", path], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("resource error: out of memory") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


@pytest.fixture(scope="module")
def split_inputs(tmp_path_factory):
    """The split inputs of the README example session, built with `example`:
    H4 over Q with J = span{e1, e3}, and HA(p = 3) over F_7 with the
    coradical candidate span{e_9i}."""
    d = tmp_path_factory.mktemp("split_inputs")
    main(["example", "sweedler_h4", "--field", "q", "--out", str(d / "h4.json")])
    main(["example", "ha", "--p", "3", "--field", "fp:7", "--lam", "2", "--a", "1", "--out", str(d / "ha.json")])
    (d / "rad.json").write_text(json.dumps({"field": {"kind": "Q"}, "ambient_dim": 4,
                                            "vectors": [["0", "1", "0", "0"], ["0", "0", "0", "1"]]}))
    vecs = [["1" if j == 9 * i else "0" for j in range(81)] for i in range(9)]
    (d / "corad.json").write_text(json.dumps({"field": {"kind": "Fp", "p": 7}, "ambient_dim": 81, "vectors": vecs}))
    return d


@pytest.mark.parametrize("structure, side, candidate, level, digest", [
    ("h4.json", "radical", "rad.json", "comodule", "c042494f7069d5d0d7a6f1343a49c6ec9aa6bda79511de2887d08f104fcb9b46"),
    ("h4.json", "radical", "rad.json", "bicomodule", "cf3fa93bc6b0e2bfb6313dc80233582fc0e5bc22ed1bde5909b5f1a6d38053d0"),
    ("ha.json", "coradical", "corad.json", "comodule",
     "653127d3ccc4c116f8985b7de344ed9c3d564d198c848957e2cc326e64fcc4bc"),
    ("ha.json", "coradical", "corad.json", "bicomodule",
     "d45e112f9ae8688f6970e8199477e4d11cb80fe36e3adb80154eed3d2a164e6f"),
], ids=["h4_radical_comodule", "h4_radical_bicomodule", "ha_coradical_comodule", "ha_coradical_bicomodule"])
def test_split_reports_are_byte_identical(split_inputs, tmp_path, capsys, structure, side, candidate, level, digest):
    """The SHA-256 of each split report of the example session, at both
    levels: the split checks (sections, retractions and their (co)linearity)
    leave the report as it was."""
    import hashlib

    out = tmp_path / "report.json"
    code, _, err = run_cli(["split", str(split_inputs / structure), "--side", side, "--candidate",
                            str(split_inputs / candidate), "--level", level, "--out", str(out)], capsys)
    assert code == 0, err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
