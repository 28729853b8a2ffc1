"""A fuzz test of the CLI exit-code contract: mutated structure and candidate
files exit 0, 1 or 2 without a traceback, malformed ones exit 2, and the
column read of the structure and candidate readers accepts exactly what the
item-by-item parse accepts, or rejects it with the same message."""
import contextlib
import copy
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfsplit import serialize
from hopfsplit.cli import main
from hopfsplit.serialize import FileFormatError, object_from_json, subspace_from_json

# (example argv, radical candidate rows, coradical candidate rows)
BASES = {
    "taft3_f7": (["taft", "--n", "3", "--field", "fp:7"], [1, 2, 4, 5, 7, 8], [0, 3, 6]),
    "z3_f7": (["group_algebra", "--n", "3", "--field", "fp:7"], [], [0, 1, 2]),
    "h4_q": (["sweedler_h4", "--field", "q"], [1, 3], [0, 2]),
}
COMMANDS = [["validate"], ["integral"], ["integral", "--dual"], ["radical"], ["coradical"], ["filtration"],
            ["radical", "--candidate"], ["coradical", "--candidate"], ["filtration", "--candidate"],
            ["split", "--side", "radical", "--candidate"], ["split", "--side", "coradical", "--candidate"]]

BAD_INDICES = [True, False, None, 1.0, 2.5, -1, "1", 10**30]
BAD_COEFFS = [1.5, 2.0, "1/0", "9" * 5000, "0.5e1", True, None, [1]]


def run(argv):
    """(exit code, stdout, stderr) of an in-process CLI run; any exception
    other than argparse's exit escapes, as a traceback would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The base structure documents and their candidates, and the two paths
    every example writes."""
    root = tmp_path_factory.mktemp("fuzz")
    docs = {}
    for name, (argv, rad, corad) in BASES.items():
        path = root / f"{name}.json"
        assert run(["example", *argv, "--out", str(path)])[0] == 0
        doc = json.loads(path.read_text())
        unit = lambda i: ["1" if t == i else "0" for t in range(doc["dim"])]
        cands = {side: {"field": doc["field"], "ambient_dim": doc["dim"], "vectors": [unit(i) for i in rows]}
                 for side, rows in (("radical", rad), ("coradical", corad))}
        docs[name] = doc, cands
    return docs, root / "structure.json", root / "candidate.json"


def item_parse(fn, *args):
    """fn with the column read and the batch scalar parse switched off."""
    with mock.patch.object(serialize, "_batch_columns", return_value=None), \
            mock.patch.object(serialize, "_batch_scalars", return_value=None):
        return outcome(fn, *args)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except FileFormatError as e:
        return "error", str(e)


@st.composite
def structure_mutations(draw, doc):
    """(mutated doc, malformed): one index, arity, coefficient, duplicate or
    missing-key edit of a structure document."""
    doc = copy.deepcopy(doc)
    kind = draw(st.sampled_from(["index", "arity", "coefficient", "duplicate", "missing"]))
    if kind == "missing":
        key = draw(st.sampled_from(["field", "dim", "unit", "counit", "mul", "comul", "antipode", "basis"]))
        del doc[key]
        return doc, key in ("field", "dim", "unit", "counit")
    table = doc[draw(st.sampled_from(["mul", "comul"]))]
    t = draw(st.integers(0, len(table) - 1))
    if kind == "index":
        table[t][draw(st.integers(0, 2))] = draw(st.sampled_from(BAD_INDICES + [doc["dim"]]))
    elif kind == "arity":
        table[t] = table[t][:-1] if draw(st.booleans()) else table[t] + ["1"]
    elif kind == "coefficient":
        table[t][3] = draw(st.sampled_from(BAD_COEFFS))
    else:
        table.append(table[t][:3] + [draw(st.sampled_from(["1", "-1", "3", "0"]))])
    return doc, kind != "duplicate"


@st.composite
def candidate_mutations(draw, cand):
    """(mutated candidate, malformed)."""
    cand = copy.deepcopy(cand)
    kind = draw(st.sampled_from(["coefficient", "arity", "missing", "ambient_dim", "none"]))
    if kind in ("coefficient", "arity") and not cand["vectors"]:
        kind = "missing"
    if kind == "coefficient":
        vec = draw(st.sampled_from(cand["vectors"]))
        vec[draw(st.integers(0, len(vec) - 1))] = draw(st.sampled_from(BAD_COEFFS))
    elif kind == "arity":
        vec = draw(st.sampled_from(cand["vectors"]))
        vec.append("0") if draw(st.booleans()) else vec.pop()
    elif kind == "missing":
        del cand["vectors"]
    elif kind == "ambient_dim":
        cand["ambient_dim"] = draw(st.sampled_from([True, 1.5, -1, None, "4"]))
    return cand, kind != "none"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_files_keep_the_exit_code_contract(files, data):
    docs, spath, cpath = files
    base = data.draw(st.sampled_from(sorted(docs)))
    doc, cands = docs[base]
    argv = data.draw(st.sampled_from(COMMANDS))
    takes_candidate = argv[-1] == "--candidate"
    malformed = False
    if takes_candidate and data.draw(st.booleans()):
        side = "coradical" if "coradical" in argv or "filtration" in argv else "radical"
        cand, malformed = data.draw(candidate_mutations(cands[side]))
        args = (cand, serialize.field_from_json(doc["field"]), doc["dim"])
        got, want = outcome(subspace_from_json, *args), item_parse(subspace_from_json, *args)
        if got[0] == "ok":
            got, want = ("ok", got[1].basis.to_rows()), ("ok", want[1].basis.to_rows())
        assert got == want
    else:
        cand = cands["coradical" if "coradical" in argv or "filtration" in argv else "radical"]
        doc, malformed = data.draw(structure_mutations(doc))
        got, want = outcome(object_from_json, doc), item_parse(object_from_json, doc)
        if got[0] == "ok":
            got, want = ("ok", serialize.dumps(serialize.object_to_json(got[1]))), \
                ("ok", serialize.dumps(serialize.object_to_json(want[1])))
        assert got == want
    spath.write_text(json.dumps(doc))
    cpath.write_text(json.dumps(cand))
    code, out, err = run([argv[0], str(spath), *argv[1:]] + ([str(cpath)] if takes_candidate else []))
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if malformed:
        assert (code, out) == (2, "") and err.startswith("input error: ") and err.count("\n") == 1, (code, err)


@pytest.mark.parametrize("text", [
    # json.loads raises a bare ValueError past Python's 4300-digit limit for
    # int conversion, and RecursionError on deep nesting; both used to reach
    # `cli.main`, the first as a mathematical negative, the second as a
    # traceback
    '{"field": {"kind": "Q"}, "dim": 1, "mul": [[0, 0, 0, 1%s]], "unit": ["1"]}' % ("0" * 5000),
    "[" * 100000 + "]" * 100000,
], ids=["long_integer", "deep_nesting"])
def test_unreadable_json_exits_2(files, text):
    _, spath, _ = files
    spath.write_text(text)
    code, out, err = run(["validate", str(spath)])
    assert (code, out) == (2, "") and err.startswith("input error: invalid JSON: ") and err.count("\n") == 1
