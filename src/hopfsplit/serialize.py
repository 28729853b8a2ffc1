"""JSON structure-constant files and report serialization.

Coefficients travel as strings ("a/b" over Q, integer residues over F_p)
so exactness survives the wire.  Triple lists are sorted and documents are
written with sorted keys (`dumps`, the text of json.dumps with indent=1),
making write -> read -> write byte-identical.

Reading raises only FileFormatError on malformed input: indices and
dimensions must be JSON integers, dimensions at most ``MAX_DIM``,
coefficients strings or JSON integers; null, booleans and JSON floats are
rejected, as are coefficients that are not ``[+-]digits[/digits]`` or
divide by zero in the field.

Every reader parses its coefficients through `_batch_scalars`: a list of
strings that all match ``[+-]digits`` is checked with one match on its
distinct strings joined by newlines, and each distinct string is converted
once.  Triple lists are read by column (`_columns`) into the index arrays
and coefficient array of the structure constants, and the vectors of a
candidate file are parsed as one list.  Any other list, well-formed or
not, is parsed item by item (`_entries`, `_scalar`), so the fast path
changes neither the accepted inputs nor the first error and its message.
Duplicate entries of a triple list add up in every reader.
"""
from __future__ import annotations

import itertools
import json
import re

import numpy as np

from .algebra import AlgebraObject
from .coalgebra import CoalgebraObject
from .fields import GF, QQ, ScalarField
from .hopf import BialgebraObject, HopfObject
from .linalg import Matrix, Subspace, _dtype


class FileFormatError(Exception):
    """Malformed input file (CLI exit code 2)."""


def _int(x, what) -> int:
    """A JSON integer: not a bool, float, string or null."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise FileFormatError(f"{what}: {x!r} is not an integer")
    return x


# Largest dimension a file may declare, checked before any array is built.
# It bounds the dense n x n^2 arrays of a structure (`mul_matrix()`,
# `comul_matrix()`, a dense product's constants: 128 MiB as int64 at the
# cap), not the joins on a table that is dense in its basis.  The largest
# worked example, the flagship, has dimension 81.
MAX_DIM = 256


def _dim(x, what) -> int:
    n = _int(x, what)
    if n < 0:
        raise FileFormatError(f"{what}: {n} is negative")
    if n > MAX_DIM:
        raise FileFormatError(f"{what}: {n} exceeds the largest supported dimension {MAX_DIM}")
    return n


def _list(x, what) -> list:
    if not isinstance(x, list):
        raise FileFormatError(f"{what} is not a list: {x!r}")
    return x


def _scalar(f, x, what):
    """A coefficient: a string, or a JSON integer."""
    if isinstance(x, bool) or not isinstance(x, (str, int)):
        raise FileFormatError(f"{what}: coefficient {x!r} is not a string or an integer")
    try:
        return f.parse(str(x))
    except (ValueError, ZeroDivisionError) as e:
        raise FileFormatError(f"{what}: bad coefficient {x!r}: {e}")


# the integer case of the coefficient grammar, one string per line: "\n" is
# outside the grammar, so with exactly one "\n" per string none spans two
_INT_LINES = re.compile(r"(?:[+-]?[0-9]+\n)*")


def _batch_scalars(f, xs) -> list | None:
    """The parsed coefficients xs when every one is a string ``[+-]digits``,
    as `ScalarField.parse` gives them; None for any other list, which the
    caller parses item by item.  Each distinct string is checked and
    converted once."""
    if set(map(type, xs)) != {str}:
        return None
    distinct = set(xs)
    text = "\n".join(distinct) + "\n"
    if text.count("\n") != len(distinct) or _INT_LINES.fullmatch(text) is None:
        return None
    try:
        value = {x: f.from_int(int(x)) for x in distinct}
    except ValueError:  # past int's digit limit, reported by the item parse
        return None
    return list(map(value.__getitem__, xs))


def _batch_columns(f, raw, bounds) -> list | None:
    """The columns of a list whose entries all have the right length, JSON
    integer indices in range and integer coefficient strings: one int64
    array per index and the parsed coefficients; else None."""
    if type(raw) is not list or set(map(type, raw)) != {list} or set(map(len, raw)) != {len(bounds) + 1}:
        return None
    cols = list(zip(*raw))
    for col, b in zip(cols, bounds):
        if set(map(type, col)) != {int} or min(col) < 0 or max(col) >= b:
            return None
    vals = _batch_scalars(f, cols[-1])
    return None if vals is None else [np.array(col, dtype=np.int64) for col in cols[:-1]] + [vals]


def _entries(f, raw, bounds, what) -> list:
    """Parse [i_1, ..., i_r, c] entries item by item, each index below its
    bound, into tuples; the first bad entry raises."""
    out = []
    for t in _list(raw, what):
        if not isinstance(t, list) or len(t) != len(bounds) + 1:
            raise FileFormatError(f"bad {what} entry {t!r}")
        idx = [_int(x, f"{what} entry {t!r}") for x in t[:-1]]
        if not all(0 <= i < b for i, b in zip(idx, bounds)):
            raise FileFormatError(f"{what} entry {t!r} out of range")
        out.append((*idx, _scalar(f, t[-1], f"{what} entry {t!r}")))
    return out


def _columns(f, raw, bounds, what) -> tuple:
    """[i_1, ..., i_r, c] entries as r int64 index arrays and the array of
    their coefficients, in the order of the entries.  A regular list is read
    column by column (`_batch_columns`); any other goes through `_entries`,
    so the column read changes neither the accepted inputs nor the first
    error and its message."""
    cols = _batch_columns(f, raw, bounds)
    if cols is None:
        entries = _entries(f, raw, bounds, what)
        cols = [np.array([e[t] for e in entries], dtype=np.int64) for t in range(len(bounds))]
        cols.append([e[-1] for e in entries])
    return (*cols[:-1], np.array(cols[-1], dtype=_dtype(f)))


def field_to_json(f: ScalarField) -> dict:
    return {"kind": "Q"} if f.kind == "Q" else {"kind": "Fp", "p": f.p}


def field_from_json(d) -> ScalarField:
    try:
        if d["kind"] == "Q":
            return QQ
        if d["kind"] == "Fp":
            return GF(_int(d["p"], "field modulus"))
    except (KeyError, TypeError, ValueError) as e:
        raise FileFormatError(f"bad field descriptor: {e}")
    raise FileFormatError(f"unknown field kind {d.get('kind')!r}")


def _triples(f, table) -> list:
    """[i, j, k, c] for the stored structure constants (i, j, k, v), sorted."""
    order = np.lexsort(table[2::-1])
    return [[i, j, k, f.fmt(c)] for i, j, k, c in zip(*(x[order].tolist() for x in table))]


def _vec_strs(f, vec) -> list:
    return [f.fmt(c) for c in vec]


def _matrix_rows(f, m: Matrix) -> list:
    return [[f.fmt(x) for x in m.row_list(i)] for i in range(m.rows)]


def _matrix_from_rows(f, rows, expect_shape, what) -> Matrix:
    m, n = expect_shape
    if type(rows) is list and len(rows) == m and all(type(r) is list and len(r) == n for r in rows):
        vals = _batch_scalars(f, list(itertools.chain.from_iterable(rows)))
        if vals is not None:
            return Matrix(f, m, n, vals)
    data = [[_scalar(f, x, what) for x in _list(row, what)] for row in _list(rows, what)]
    if len(data) != m or any(len(row) != n for row in data):
        raise FileFormatError(f"{what}: matrix is not {m}x{n}")
    return Matrix(f, m, n, data)


def object_to_json(x) -> dict:
    """Serialize an Algebra/Coalgebra/Bialgebra/Hopf object."""
    f = x.field
    doc = {"field": field_to_json(f), "dim": x.dim, "basis": list(x.labels)}
    if isinstance(x, (AlgebraObject, BialgebraObject)):
        doc["mul"] = _triples(f, x.as_algebra().table if isinstance(x, BialgebraObject) else x.table)
        doc["unit"] = _vec_strs(f, x.unit)
    if isinstance(x, (CoalgebraObject, BialgebraObject)):
        doc["comul"] = _triples(f, x.as_coalgebra().table if isinstance(x, BialgebraObject) else x.table)
        doc["counit"] = _vec_strs(f, x.counit)
    if isinstance(x, HopfObject):
        doc["antipode"] = _matrix_rows(f, x.antipode)
    return doc


def _table(f, raw, n: int, what: str) -> tuple:
    """Structure-constant arrays (i, j, k, v) from a list of [i, j, k, c]
    entries with indices below n (`_columns`): the entries of one (i, j, k)
    add up, in the place of its first entry."""
    i, j, k, v = _columns(f, raw, (n, n, n), what)
    key = (i * n + j) * n + k
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    if first.size == key.size:
        return i, j, k, v
    sums = np.full(first.size, f.zero(), dtype=v.dtype)
    np.add.at(sums, inv, v)
    order = np.argsort(first)
    pick = first[order]
    return i[pick], j[pick], k[pick], f.reduce(sums[order])


def object_from_json(doc):
    """Parse back; the richest structure present wins."""
    try:
        f = field_from_json(doc["field"])
        dim = _dim(doc["dim"], "dim")
    except (KeyError, TypeError) as e:
        raise FileFormatError(f"missing field/dim: {e}")
    labels = _list(doc.get("basis") or [f"e{i}" for i in range(dim)], "basis")
    if len(labels) != dim:
        raise FileFormatError("basis label count differs from dim")
    for x in labels:
        if not isinstance(x, str):
            raise FileFormatError(f"basis label {x!r} is not a string")
    alg = coalg = None
    if "mul" in doc:
        mul = _table(f, doc["mul"], dim, "mul")
        alg = AlgebraObject.from_constants(f, dim, mul, _parse_vec(f, doc.get("unit"), dim, "unit"), labels)
    if "comul" in doc:
        comul = _table(f, doc["comul"], dim, "comul")
        coalg = CoalgebraObject.from_constants(f, dim, comul, _parse_vec(f, doc.get("counit"), dim, "counit"), labels)
    if alg is None and coalg is None:
        raise FileFormatError("file carries neither mul nor comul")
    if alg is None or coalg is None:
        return coalg if alg is None else alg
    if "antipode" in doc:
        return HopfObject.from_parts(alg, coalg, _matrix_from_rows(f, doc["antipode"], (dim, dim), "antipode"))
    return BialgebraObject.from_parts(alg, coalg)


def _parse_vec(f, raw, dim, what) -> list:
    if raw is None:
        raise FileFormatError(f"missing {what}")
    if len(_list(raw, what)) != dim:
        raise FileFormatError(f"{what} has length {len(raw)}, expected {dim}")
    vals = _batch_scalars(f, raw)
    return vals if vals is not None else [_scalar(f, x, what) for x in raw]


def subspace_to_json(s: Subspace) -> dict:
    f = s.field
    return {
        "field": field_to_json(f),
        "ambient_dim": s.ambient_dim,
        "vectors": [[f.fmt(x) for x in s.basis.row_list(i)] for i in range(s.dim)],
    }


def subspace_from_json(doc, field=None, ambient=None) -> Subspace:
    """A subspace file read for a structure over ``field`` of dim ``ambient``
    (when given): the file's own field and ambient_dim must match them."""
    try:
        f = field_from_json(doc["field"]) if "field" in doc else field
        n = _dim(doc["ambient_dim"], "ambient_dim") if "ambient_dim" in doc else ambient
        raw = doc["vectors"]
    except (KeyError, TypeError) as e:
        raise FileFormatError(f"bad subspace file: {e}")
    if f is None or n is None:
        raise FileFormatError("subspace file lacks field/ambient_dim")
    if field is not None and f != field:
        raise FileFormatError(f"subspace over {f!r} for a structure over {field!r}")
    if ambient is not None and n != ambient:
        raise FileFormatError(f"subspace ambient_dim {n} for a structure of dim {ambient}")
    raw = _list(raw, "vectors")
    vals = None
    if all(type(v) is list and len(v) == n for v in raw):
        vals = _batch_scalars(f, list(itertools.chain.from_iterable(raw)))
    if vals is None:
        vecs = [_parse_vec(f, v, n, "subspace vector") for v in raw]
    else:
        vecs = [vals[r * n : (r + 1) * n] for r in range(len(raw))]
    return Subspace.from_vectors(f, n, vecs)


def _sparse_matrix_triples(f, m: Matrix) -> list:
    out = [[i, j, f.fmt(v)] for i, j, v in m.entries()]
    out.sort(key=lambda t: (t[0], t[1]))
    return out


def _matrix_from_triples(f, rows, cols, triples, what) -> Matrix:
    i, j, v = _columns(f, triples, (rows, cols), what)
    d = Matrix.zeros(f, rows, cols)._d
    np.add.at(d, (i, j), v)
    return Matrix(f, rows, cols, f.reduce(d), _raw=True)


def quadruple_to_json(q) -> dict:
    """Quadruple envelope (both variants) with the four maps as triples."""
    from .smash import DualYDQuadruple, YDQuadruple

    f = q.field
    dr, dh = q.yd.dim, q.hopf.dim
    env = {
        "H": object_to_json(q.hopf),
        "R_dim": dr,
        "yd_act": _sparse_matrix_triples(f, q.yd.act),
        "yd_coact": _sparse_matrix_triples(f, q.yd.coact),
    }
    if isinstance(q, YDQuadruple):
        env["side"] = "primal"
        env["R_mul"] = _triples(f, q.r_alg.table)
        env["R_unit"] = _vec_strs(f, q.r_alg.unit)
        env["eps"] = _vec_strs(f, q.eps)
        env["delta"] = _sparse_matrix_triples(f, q.delta)
        env["omega"] = _sparse_matrix_triples(f, q.omega)
    elif isinstance(q, DualYDQuadruple):
        env["side"] = "dual"
        env["R_comul"] = _triples(f, q.r_coalg.table)
        env["R_counit"] = _vec_strs(f, q.r_coalg.counit)
        env["one"] = _vec_strs(f, q.one)
        env["m"] = _sparse_matrix_triples(f, q.mul)
        env["xi"] = _sparse_matrix_triples(f, q.xi)
    else:
        raise TypeError("not a quadruple")
    return {"quadruple": env}


def quadruple_from_json(doc):
    from .category import YDObject
    from .smash import DualYDQuadruple, YDQuadruple

    try:
        env = doc["quadruple"]
        h = object_from_json(env["H"])
        dr = _dim(env["R_dim"], "R_dim")
        side = env["side"]
    except (KeyError, TypeError, ValueError) as e:
        raise FileFormatError(f"bad quadruple envelope: {e}")
    if not isinstance(h, HopfObject):
        raise FileFormatError("quadruple H must be a Hopf object (with antipode)")
    f = h.field
    dh = h.dim
    act = _matrix_from_triples(f, dr, dh * dr, env.get("yd_act", []), "yd_act")
    coact = _matrix_from_triples(f, dh * dr, dr, env.get("yd_coact", []), "yd_coact")
    yd = YDObject(h, dr, act, coact)
    if side == "primal":
        mul = _table(f, env.get("R_mul", []), dr, "R_mul")
        r_alg = AlgebraObject.from_constants(f, dr, mul, _parse_vec(f, env.get("R_unit"), dr, "R_unit"))
        eps = _parse_vec(f, env.get("eps"), dr, "eps")
        delta = _matrix_from_triples(f, dr * dr, dr, env.get("delta", []), "delta")
        omega = _matrix_from_triples(f, dr * dr, dh, env.get("omega", []), "omega")
        return YDQuadruple(h, r_alg, yd, eps, delta, omega)
    if side == "dual":
        comul = _table(f, env.get("R_comul", []), dr, "R_comul")
        r_coalg = CoalgebraObject.from_constants(f, dr, comul, _parse_vec(f, env.get("R_counit"), dr, "R_counit"))
        one = _parse_vec(f, env.get("one"), dr, "one")
        mulm = _matrix_from_triples(f, dr, dr * dr, env.get("m", []), "m")
        xi = _matrix_from_triples(f, dh, dr * dr, env.get("xi", []), "xi")
        return DualYDQuadruple(h, r_coalg, yd, one, mulm, xi)
    raise FileFormatError(f"unknown quadruple side {side!r}")


def report_to_json(report) -> dict:
    """SplitReport -> deterministic JSON document."""
    f = report.bialgebra.field
    doc = {
        "side": report.side,
        "level": report.level,
        "field": field_to_json(f),
        "dim": report.bialgebra.dim,
        "hopf": object_to_json(report.hopf),
        "pi": _sparse_matrix_triples(f, report.pi),
        "sigma": _sparse_matrix_triples(f, report.sigma),
        "iso": _sparse_matrix_triples(f, report.iso),
        "quadruple": quadruple_to_json(report.quadruple)["quadruple"],
        "checks": {name: ok for name, ok, _ in report.checks.checks},
    }
    return doc


# the JSON text of each scalar type, as json.dumps writes it
_ATOMS = {str: json.encoder.encode_basestring_ascii, int: int.__repr__,
          bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}


class _Unsupported(Exception):
    """A value `_encode` leaves to json.dumps."""


def _encode(x, nl: str) -> str:
    """x as json.dumps(x, sort_keys=True, separators=(",", ": "), indent=1)
    writes it at the line start nl; a list of scalars of one type is one
    join.  Raises _Unsupported on floats, dicts with keys that are not
    strings and every type json.dumps does not write as a list or dict."""
    enc = _ATOMS.get(type(x))
    if enc is not None:
        return enc(x)
    inner = nl + " "
    if type(x) is dict:
        if not x:
            return "{}"
        if set(map(type, x)) != {str}:
            raise _Unsupported
        parts = (_ATOMS[str](k) + ": " + _encode(v, inner) for k, v in sorted(x.items()))
        return "{" + inner + ("," + inner).join(parts) + nl + "}"
    if type(x) is list or type(x) is tuple:
        if not x:
            return "[]"
        parts = _atoms(x)
        if parts is None and set(map(type, x)) == {list} and len(set(map(len, x))) == 1 and x[0]:
            cols = [_atoms(col) for col in zip(*x)]  # a table of scalars, one join per column
            if None not in cols:
                sep = "," + inner + " "
                parts = ("[" + inner + " " + sep.join(row) + inner + "]" for row in zip(*cols))
        if parts is None:
            parts = (_encode(v, inner) for v in x)
        return "[" + inner + ("," + inner).join(parts) + nl + "]"
    raise _Unsupported


def _atoms(xs):
    """The JSON texts of a sequence of scalars of one type, else None."""
    kinds = set(map(type, xs))
    enc = _ATOMS.get(kinds.pop()) if len(kinds) == 1 else None
    return None if enc is None else map(enc, xs)


def dumps(doc) -> str:
    """The deterministic JSON text of a document: sorted keys, one space of
    indent per level, a final newline.  `_encode` writes it; json.dumps,
    whose indented form runs its pure-Python encoder, only what `_encode`
    leaves."""
    try:
        return _encode(doc, "\n") + "\n"
    except _Unsupported:
        return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # also an integer past int's digit limit, or deep nesting
        raise FileFormatError(f"invalid JSON: {e}")


def read_file(path: str):
    try:
        with open(path) as fh:
            return loads(fh.read())
    except OSError as e:
        raise FileFormatError(f"cannot read {path}: {e}")


def write_file(path: str, doc):
    with open(path, "w") as fh:
        fh.write(dumps(doc))
