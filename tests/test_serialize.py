"""The wire-format readers: the batch coefficient parse against the
item-by-item parse it replaces, and the duplicate-triple rule."""
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hopfsplit import serialize
from hopfsplit.cli import main
from hopfsplit.fields import GF, QQ
from hopfsplit.linalg import _dtype
from hopfsplit.serialize import (
    FileFormatError, _columns, _entries, _list, _matrix_from_rows, _matrix_from_triples, _parse_vec, _scalar,
    object_from_json, quadruple_from_json, quadruple_to_json, subspace_from_json,
)

# -- the item-by-item readers, as they were before the batch parse ---------


def ref_vec(f, raw, dim, what):
    if raw is None:
        raise FileFormatError(f"missing {what}")
    if len(_list(raw, what)) != dim:
        raise FileFormatError(f"{what} has length {len(raw)}, expected {dim}")
    return [_scalar(f, x, what) for x in raw]


def ref_matrix_rows(f, rows, expect_shape, what):
    m, n = expect_shape
    data = [[_scalar(f, x, what) for x in _list(row, what)] for row in _list(rows, what)]
    if len(data) != m or any(len(row) != n for row in data):
        raise FileFormatError(f"{what}: matrix is not {m}x{n}")
    return data


def outcome(fn, *args):
    """("ok", value) or ("error", message)."""
    try:
        return "ok", fn(*args)
    except FileFormatError as e:
        return "error", str(e)


def typed(x):
    """x with the type of every scalar spelled out, so that 3 and np.int64(3),
    or 1 and Fraction(1), compare unequal."""
    if isinstance(x, dict):
        return [(typed(k), typed(v)) for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [typed(v) for v in x]
    return type(x).__name__, x


FIELDS = [QQ, GF(2), GF(7), GF(2**31 - 1), GF(2**61 - 1)]

# coefficients the grammar accepts, rejects, or that reach it as other JSON
PROBES = [" 3 ", "+3", "-0", "007", "1_0", "٣", "3\n4", "3/0", "2/3", "1.0", "", "0x10",
          str(2**70), 2**70, -5, True, False, None, 1.5, "9" * 5000]
BAD_INDICES = [-1, True, False, None, "1", 1.0, 10**6]

good_coeff = st.integers(-(10**25), 10**25).map(str)


@st.composite
def entry_lists(draw, width):
    dim = draw(st.integers(1, 4))
    bounds = (dim,) * (width - 1)
    entries = draw(st.lists(
        st.tuples(*[st.integers(0, dim - 1)] * (width - 1), good_coeff).map(list), max_size=12))
    if entries and draw(st.booleans()):
        t = draw(st.sampled_from(entries))
        if draw(st.booleans()):
            t[-1] = draw(st.sampled_from(PROBES))
        else:
            t[draw(st.integers(0, width - 2))] = draw(st.sampled_from(BAD_INDICES))
    if draw(st.integers(0, 9)) == 0:
        entries.append(draw(st.sampled_from([[0], [0, 0, 0, 0, 0, "1"], (0, 0, 0, "1"), "x"])))
    return bounds, entries


@st.composite
def vectors(draw):
    dim = draw(st.integers(0, 5))
    vec = draw(st.lists(good_coeff, min_size=dim, max_size=dim))
    if vec and draw(st.booleans()):
        vec[draw(st.integers(0, dim - 1))] = draw(st.sampled_from(PROBES))
    return dim, vec


@settings(max_examples=300, deadline=None)
@given(f=st.sampled_from(FIELDS), case=st.integers(3, 4).flatmap(entry_lists))
def test_batch_entries_match_item_parse(f, case):
    bounds, raw = case
    got = outcome(_columns, f, raw, bounds, "mul")
    if got[0] == "ok":
        idx, vals = got[1][:-1], got[1][-1]
        assert all(x.dtype == np.int64 for x in idx) and vals.dtype == _dtype(f)
        got = "ok", list(zip(*(x.tolist() for x in got[1])))
    assert typed(got) == typed(outcome(_entries, f, raw, bounds, "mul"))


@settings(max_examples=300, deadline=None)
@given(f=st.sampled_from(FIELDS), case=vectors())
def test_batch_vector_matches_item_parse(f, case):
    dim, raw = case
    assert typed(outcome(_parse_vec, f, raw, dim, "unit")) == typed(outcome(ref_vec, f, raw, dim, "unit"))


@settings(max_examples=200, deadline=None)
@given(f=st.sampled_from(FIELDS), data=st.data())
def test_batch_matrix_rows_match_item_parse(f, data):
    m, n = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    rows = [data.draw(st.lists(good_coeff, min_size=n, max_size=n)) for _ in range(m)]
    if m and n and data.draw(st.booleans()):
        rows[data.draw(st.integers(0, m - 1))][data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from(PROBES))
    if m and data.draw(st.integers(0, 4)) == 0:
        rows[0] = rows[0][:-1] if n else ["1"]
    got = outcome(_matrix_from_rows, f, rows, (m, n), "antipode")
    want = outcome(ref_matrix_rows, f, rows, (m, n), "antipode")
    if got[0] == "ok":
        got = "ok", got[1].to_rows()
    assert got == want
    if got[0] == "ok":
        assert all(type(x) is type(f.zero()) for row in got[1] for x in row)


# -- whole documents: the readers against their item-by-item fallback ------


@pytest.fixture
def item_parse(monkeypatch):
    """Run a reader with the batch parse switched off."""
    def run(fn, *args):
        with monkeypatch.context() as mp:
            mp.setattr(serialize, "_batch_scalars", lambda f, xs: None)
            mp.setattr(serialize, "_batch_columns", lambda f, raw, bounds: None)
            return outcome(fn, *args)
    return run


def structure_view(obj):
    view = {"type": type(obj).__name__, "dim": obj.dim}
    for name in ("mul", "unit", "comul", "counit"):
        if hasattr(obj, name):
            view[name] = typed(getattr(obj, name))
    if hasattr(obj, "antipode"):
        view["antipode"] = typed(obj.antipode.to_rows())
    return view


@st.composite
def structure_docs(draw):
    f = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(1, 3))
    triple = st.tuples(*[st.integers(0, dim - 1)] * 3, good_coeff).map(list)
    vec = st.lists(good_coeff, min_size=dim, max_size=dim)
    doc = {"field": {"kind": "Q"} if f.kind == "Q" else {"kind": "Fp", "p": f.p}, "dim": dim}
    if draw(st.booleans()):
        doc["mul"], doc["unit"] = draw(st.lists(triple, max_size=10)), draw(vec)
    if draw(st.booleans()) or "mul" not in doc:
        doc["comul"], doc["counit"] = draw(st.lists(triple, max_size=10)), draw(vec)
        if "mul" in doc and draw(st.booleans()):
            doc["antipode"] = [draw(vec) for _ in range(dim)]
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(k for k in doc if k not in ("field", "dim"))))
        if key in ("mul", "comul") and doc[key]:
            t = draw(st.sampled_from(doc[key]))
            pos = draw(st.sampled_from([0, 1, 2, 3, 3, 3]))
            t[pos] = draw(st.sampled_from(PROBES if pos == 3 else BAD_INDICES))
        elif key in ("unit", "counit"):
            doc[key][draw(st.integers(0, dim - 1))] = draw(st.sampled_from(PROBES))
        elif key == "antipode":
            doc[key][draw(st.integers(0, dim - 1))][draw(st.integers(0, dim - 1))] = draw(st.sampled_from(PROBES))
    return doc


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=structure_docs())
def test_structure_documents_match_item_parse(item_parse, doc):
    got, want = outcome(object_from_json, doc), item_parse(object_from_json, doc)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert structure_view(got[1]) == structure_view(want[1])
    else:
        assert got[1] == want[1]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(f=st.sampled_from(FIELDS), data=st.data())
def test_candidate_documents_match_item_parse(item_parse, f, data):
    n = data.draw(st.integers(1, 4))
    vecs = data.draw(st.lists(st.lists(good_coeff, min_size=n, max_size=n), max_size=4))
    if vecs and data.draw(st.booleans()):
        vecs[data.draw(st.integers(0, len(vecs) - 1))][data.draw(st.integers(0, n - 1))] = data.draw(
            st.sampled_from(PROBES))
    doc = {"field": {"kind": "Q"} if f.kind == "Q" else {"kind": "Fp", "p": f.p}, "ambient_dim": n, "vectors": vecs}
    got, want = outcome(subspace_from_json, doc), item_parse(subspace_from_json, doc)
    if got[0] == "ok":
        got, want = ("ok", got[1].basis.to_rows()), ("ok", want[1].basis.to_rows())
    assert got == want


def _h4_quadruple_doc(side):
    from hopfsplit.builtin import sweedler_h4
    from hopfsplit.linalg import Subspace
    from hopfsplit.pipeline import run_coradical_pipeline, run_radical_pipeline
    from hopfsplit.tensors import v_basis

    h4 = sweedler_h4(QQ)
    if side == "primal":
        rep = run_radical_pipeline(h4, Subspace.from_vectors(QQ, 4, [v_basis(QQ, 4, 1), v_basis(QQ, 4, 3)]))
    else:
        rep = run_coradical_pipeline(h4, Subspace.from_vectors(QQ, 4, [v_basis(QQ, 4, 0), v_basis(QQ, 4, 2)]))
    return quadruple_to_json(rep.quadruple)


@pytest.fixture(scope="module")
def quadruple_docs():
    return {side: json.dumps(_h4_quadruple_doc(side)) for side in ("primal", "dual")}


def quadruple_view(q):
    view = {"yd": typed([q.yd.act.to_rows(), q.yd.coact.to_rows()])}
    for name in ("r_alg", "r_coalg"):
        if hasattr(q, name):
            view[name] = structure_view(getattr(q, name))
    for name in ("eps", "one"):
        if hasattr(q, name):
            view[name] = typed(getattr(q, name))
    for name in ("delta", "omega", "mul", "xi"):
        if hasattr(q, name):
            view[name] = typed(getattr(q, name).to_rows())
    return view


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(side=st.sampled_from(["primal", "dual"]), data=st.data())
def test_quadruple_documents_match_item_parse(item_parse, quadruple_docs, side, data):
    doc = json.loads(quadruple_docs[side])
    env = doc["quadruple"]
    lists = [k for k in sorted(env) if isinstance(env[k], list) and env[k]]
    key = data.draw(st.sampled_from(lists))
    item = data.draw(st.sampled_from(env[key]))
    if isinstance(item, list):
        item[-1] = data.draw(st.sampled_from(PROBES + ["5", "-2"]))
    else:
        env[key][env[key].index(item)] = data.draw(st.sampled_from(PROBES))
    got, want = outcome(quadruple_from_json, doc), item_parse(quadruple_from_json, doc)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert quadruple_view(got[1]) == quadruple_view(want[1])
    else:
        assert got[1] == want[1]


def test_parsed_values_are_python_scalars():
    f = GF(7)
    obj = object_from_json({"field": {"kind": "Fp", "p": 7}, "dim": 2,
                            "mul": [[0, 0, 0, "1"], [0, 1, 1, "8"], [1, 0, 1, "-1"]], "unit": ["1", "0"],
                            "comul": [[0, 0, 0, "1"], [1, 1, 1, "1"]], "counit": ["1", "1"],
                            "antipode": [["1", "0"], ["0", "1"]]})
    values = [c for col in obj.mul.values() for c in col.values()]
    values += [c for col in obj.comul.values() for c in col.values()] + obj.unit + obj.counit
    assert values and all(type(v) is int for v in values)
    assert obj.mul[(0, 1)] == {1: 1} and obj.mul[(1, 0)] == {1: 6}
    assert [type(v) for v in _parse_vec(QQ, ["3", "-2"], 2, "v")] == [Fraction, Fraction]
    assert _parse_vec(f, [str(2**70)], 1, "v") == [2**70 % 7]


@pytest.mark.parametrize("coeff", ["1_0", "٣", "3\n4", "3/0", "1.0", None, True, "9" * 5000])
@pytest.mark.parametrize("where", ["mul", "unit", "antipode"])
def test_rejected_coefficient_exits_2_with_one_line(tmp_path, capsys, coeff, where):
    doc = {"field": {"kind": "Fp", "p": 7}, "dim": 2,
           "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"]], "unit": ["1", "0"],
           "comul": [[0, 0, 0, "1"], [1, 1, 1, "1"]], "counit": ["1", "1"],
           "antipode": [["1", "0"], ["0", "1"]]}
    {"mul": lambda: doc["mul"][1].__setitem__(3, coeff),
     "unit": lambda: doc["unit"].__setitem__(1, coeff),
     "antipode": lambda: doc["antipode"][1].__setitem__(0, coeff)}[where]()
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", str(path)])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("input error: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("index", [True, -1, 2, "1"])
def test_rejected_index_exits_2_with_one_line(tmp_path, capsys, index):
    doc = {"field": {"kind": "Fp", "p": 7}, "dim": 2,
           "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"]], "unit": ["1", "0"]}
    doc["mul"][2][1] = index
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", str(path)])
    out = capsys.readouterr()
    assert code == 2
    assert out.err.startswith("input error: ") and out.err.count("\n") == 1


# -- duplicate triples add up in every reader ------------------------------


def _split_first(triples):
    """The same list with its first triple written as two duplicates, -1
    and c + 1, so that only their sum is c."""
    *idx, c = triples[0]
    return [[*idx, "-1"], *triples[1:], [*idx, str(QQ.parse(c) + 1)]]


def test_object_from_json_sums_duplicate_triples():
    base = {"field": {"kind": "Fp", "p": 7}, "dim": 2, "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]],
            "unit": ["1", "0"], "comul": [[0, 0, 0, "1"], [1, 1, 1, "1"]], "counit": ["1", "1"]}
    dup = {**base, "mul": base["mul"] + [[0, 1, 1, "3"]], "comul": base["comul"] + [[1, 1, 1, "2"]]}
    obj = object_from_json(dup)
    assert obj.mul[(0, 1)] == {1: 4}
    assert obj.comul[1] == {(1, 1): 3}
    assert list(obj.mul) == [(0, 0), (0, 1), (1, 0)]


def test_matrix_triples_sum_duplicates():
    m = _matrix_from_triples(QQ, 2, 2, [[0, 1, "2"], [1, 0, "1"], [0, 1, "1/2"]], "m")
    assert m.to_rows() == [[0, Fraction(5, 2)], [1, 0]]


@pytest.mark.parametrize("side, key", [("primal", "R_mul"), ("dual", "R_comul"), ("primal", "yd_act")])
def test_quadruple_readers_sum_duplicate_triples(quadruple_docs, side, key):
    doc = json.loads(quadruple_docs[side])
    want = quadruple_view(quadruple_from_json(doc))
    doc["quadruple"][key] = _split_first(doc["quadruple"][key])
    assert quadruple_view(quadruple_from_json(doc)) == want


# -- the writer against json.dumps -----------------------------------------


def json_text(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


strings = st.text(st.sampled_from('ab"\\/\n\t\x00\x1féü☃ \U0001d11e'), max_size=6) | st.text(max_size=4)
scalars = st.none() | st.booleans() | st.integers(-(10**25), 10**25) | strings
tables = st.integers(1, 4).flatmap(lambda w: st.lists(st.lists(scalars, min_size=w, max_size=w), max_size=4))
documents = st.recursive(
    scalars | tables | st.floats(),
    lambda kids: st.lists(kids, max_size=4) | st.tuples(kids, kids) | st.dictionaries(strings, kids, max_size=4)
    | st.dictionaries(st.integers(0, 3), kids, max_size=2),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(doc=documents)
def test_dumps_writes_the_text_of_json_dumps(doc):
    assert serialize.dumps(doc) == json_text(doc)


def test_dumps_matches_json_on_structure_files_and_reports():
    from hopfsplit.builtin import sweedler_h4, taft
    from hopfsplit.linalg import Subspace
    from hopfsplit.pipeline import run_radical_pipeline
    from hopfsplit.tensors import v_basis

    f = GF(29)
    docs = [serialize.object_to_json(taft(7, f.primitive_root_of_unity(7), f))]
    rep = run_radical_pipeline(sweedler_h4(QQ), Subspace.from_vectors(QQ, 4, [v_basis(QQ, 4, 1), v_basis(QQ, 4, 3)]))
    docs.append(serialize.report_to_json(rep))
    for doc in docs:
        assert serialize.dumps(doc) == json_text(doc)
