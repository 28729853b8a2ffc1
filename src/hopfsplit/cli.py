"""Command-line surface.

Exit codes: 0 = success, 1 = mathematical negative (not separable, no
antipode, obstruction, failed certification), 2 = malformed input.
Output is deterministic: fixed key order, no timestamps.
"""
from __future__ import annotations

import argparse
import functools
import sys

from .algebra import (
    AlgebraObject,
    CertificationFailed as RadicalCertificationFailed,
    IdealData,
    NotNilpotentWithin,
    NotSeparable,
    SmallCharUnsupported,
    radical,
    separability_idempotent,
)
from .coalgebra import CertificationFailed as CoradCertificationFailed
from .coalgebra import CoalgebraObject
from .coalgebra import coradical, coradical_filtration
from .fields import GF, QQ, ScalarField, is_prime
from .hochschild import AlgebraInContext, BimoduleInContext, Obstructed, cohomology
from .hopf import (
    BialgebraObject,
    HopfObject,
    NoAntipode,
    check_ad_coinvariance,
    check_ad_invariance,
    find_integral,
)
from .category import CatObject, CategoryContext
from .linalg import InconsistentSystem
from .pipeline import (
    CertificationFailed as SplitCertificationFailed,
    certify_split_input,
    corad_filtration_smash_check,
    reconstruct_and_verify,
    split_coradical,
    split_radical,
)
from .serialize import (
    MAX_DIM,
    FileFormatError,
    dumps,
    object_from_json,
    object_to_json,
    quadruple_from_json,
    read_file,
    report_to_json,
    subspace_from_json,
    write_file,
)
from .smash import DualYDQuadruple, YDQuadruple, bosonize, dual_bosonize

MATH_NEGATIVE = (
    NotSeparable,
    NoAntipode,
    NotNilpotentWithin,
    SmallCharUnsupported,
    RadicalCertificationFailed,
    CoradCertificationFailed,
    SplitCertificationFailed,
    Obstructed,
    InconsistentSystem,
)


def _parse_field(s: str) -> ScalarField:
    s = s.lower()
    if s in ("q", "qq", "rationals"):
        return QQ
    digits = s[3:] if s.startswith("fp:") else s[1:] if s.startswith("f") and s[1:].isdigit() else ""
    try:
        p = int(digits)
    except ValueError:
        raise FileFormatError(f"cannot parse field {s!r} (use 'q' or 'fp:P')") from None
    try:
        return GF(p)
    except ValueError as e:  # not a prime below 2**63
        raise FileFormatError(str(e)) from None


def _emit(args, text_lines, json_doc):
    if getattr(args, "json", False):
        sys.stdout.write(dumps(json_doc))
    else:
        for line in text_lines:
            print(line)


def _algebra_of(obj, command: str):
    """The algebra of a structure file; a file without mul is an input
    error naming what the command needs."""
    if isinstance(obj, BialgebraObject):
        return obj.as_algebra()
    if isinstance(obj, AlgebraObject):
        return obj
    raise FileFormatError(f"{command} needs an algebra (a file with mul and unit), not a coalgebra")


def _coalgebra_of(obj, command: str):
    """The coalgebra of a structure file; a file without comul is an input
    error naming what the command needs."""
    if isinstance(obj, BialgebraObject):
        return obj.as_coalgebra()
    if isinstance(obj, CoalgebraObject):
        return obj
    raise FileFormatError(f"{command} needs a coalgebra (a file with comul and counit), not an algebra")


def cmd_validate(args):
    obj = object_from_json(read_file(args.file))
    rep = obj.validate()
    lines = [f"{name}: {'ok' if ok else 'FAIL ' + str(wit)}" for name, ok, wit in rep.checks]
    _emit(args, lines, {"checks": {n: ok for n, ok, _ in rep.checks}, "ok": rep.ok})
    return 0 if rep.ok else 1


def cmd_radical(args):
    alg = _algebra_of(object_from_json(read_file(args.file)), "radical")
    cand = None
    if args.candidate:
        cand = IdealData(alg, subspace_from_json(read_file(args.candidate), alg.field, alg.dim))
    rad = radical(alg, cand)
    lines = [f"radical dimension: {rad.dim}"]
    f = alg.field
    vecs = [[f.fmt(x) for x in rad.subspace.basis.row_list(i)] for i in range(rad.dim)]
    for v in vecs:
        lines.append("  " + " ".join(v))
    _emit(args, lines, {"dim": rad.dim, "basis": vecs})
    return 0


def cmd_coradical(args):
    co = _coalgebra_of(object_from_json(read_file(args.file)), "coradical")
    cand = None
    if args.candidate:
        cand = subspace_from_json(read_file(args.candidate), co.field, co.dim)
    c0 = coradical(co, cand)
    f = co.field
    vecs = [[f.fmt(x) for x in c0.basis.row_list(i)] for i in range(c0.dim)]
    lines = [f"coradical dimension: {c0.dim}"] + ["  " + " ".join(v) for v in vecs]
    _emit(args, lines, {"dim": c0.dim, "basis": vecs})
    return 0


def cmd_filtration(args):
    co = _coalgebra_of(object_from_json(read_file(args.file)), "filtration")
    cand = None
    if args.candidate:
        cand = subspace_from_json(read_file(args.candidate), co.field, co.dim)
    c0 = coradical(co, cand)
    filt = coradical_filtration(co, c0)
    dims = [s.dim for s in filt.steps]
    lines = [f"filtration dims: {dims}", f"exhausts: {filt.exhausts}"]
    _emit(args, lines, {"dims": dims, "exhausts": filt.exhausts})
    return 0 if filt.exhausts else 1


def _context_from_args(args, field):
    kind = {"vect": "vect", "comod": "comod_r", "bicomod": "bicomod"}[args.ctx]
    if kind == "vect":
        return CategoryContext("vect"), None
    if not args.aux:
        raise FileFormatError("--ctx comod/bicomod needs --aux HOPF_FILE")
    h = object_from_json(read_file(args.aux))
    if not isinstance(h, HopfObject):
        raise FileFormatError("--aux must be a Hopf object (with antipode)")
    return CategoryContext(kind, h), h


def _catobject_from_doc(doc, field, dim, hopf, want_l, want_r):
    from .serialize import _matrix_from_triples

    st = doc.get("structures", {})
    dh = hopf.dim if hopf else 0
    coact_l = coact_r = None
    if want_l:
        if "coact_l" not in st:
            raise FileFormatError("missing structures.coact_l")
        coact_l = _matrix_from_triples(field, dh * dim, dim, st["coact_l"], "coact_l")
    if want_r:
        if "coact_r" not in st:
            raise FileFormatError("missing structures.coact_r")
        coact_r = _matrix_from_triples(field, dim * dh, dim, st["coact_r"], "coact_r")
    return CatObject(field, dim, hopf, coact_l=coact_l, coact_r=coact_r)


def cmd_hochschild(args):
    doc = read_file(args.file)
    alg = _algebra_of(object_from_json(doc), "hochschild")
    ctx, hopf = _context_from_args(args, alg.field)
    if ctx.kind == "vect":
        aobj = CatObject(alg.field, alg.dim)
    else:
        aobj = _catobject_from_doc(doc, alg.field, alg.dim, hopf,
                                   ctx.wants_left_coaction, ctx.wants_right_coaction)
    actx = AlgebraInContext(ctx, alg, aobj)
    cdoc = read_file(args.coeff)
    from .serialize import _dim, _matrix_from_triples

    try:
        dm = _dim(cdoc["dim"], "dim")
        act_l = _matrix_from_triples(alg.field, dm, alg.dim * dm, cdoc["act_l"], "act_l")
        act_r = _matrix_from_triples(alg.field, dm, dm * alg.dim, cdoc["act_r"], "act_r")
    except (KeyError, TypeError) as e:
        raise FileFormatError(f"bad coefficient bimodule file: {e}")
    if ctx.kind == "vect":
        mobj = CatObject(alg.field, dm)
    else:
        mobj = _catobject_from_doc(cdoc, alg.field, dm, hopf,
                                   ctx.wants_left_coaction, ctx.wants_right_coaction)
    mctx = BimoduleInContext(actx, mobj, act_l, act_r)
    mctx.validate().require("coefficient bimodule")
    data = cohomology(actx, mctx, args.degree)
    f = alg.field
    reps = [[[f.fmt(x) for x in r.row_list(i)] for i in range(r.rows)] for r in data.cocycle_reps]
    lines = [f"H^{args.degree} dimension: {data.dimension}"]
    _emit(args, lines, {"degree": args.degree, "dimension": data.dimension, "representatives": reps})
    return 0


def cmd_separable(args):
    doc = read_file(args.file)
    alg = _algebra_of(object_from_json(doc), "separable")
    ctx, hopf = _context_from_args(args, alg.field)
    aobj = None
    if ctx.kind != "vect":
        aobj = _catobject_from_doc(doc, alg.field, alg.dim, hopf,
                                   ctx.wants_left_coaction, ctx.wants_right_coaction)
    try:
        e = separability_idempotent(alg, aobj)
    except NotSeparable:
        _emit(args, ["NotSeparable"], {"separable": False})
        return 1
    f = alg.field
    n = alg.dim
    terms = []
    for idx, c in enumerate(e):
        if not f.is_zero(c):
            terms.append([idx // n, idx % n, f.fmt(c)])
    lines = ["separable; idempotent terms (i, j, coeff):"] + [f"  {t}" for t in terms]
    _emit(args, lines, {"separable": True, "idempotent": terms})
    return 0


def cmd_integral(args):
    obj = object_from_json(read_file(args.file))
    if not isinstance(obj, BialgebraObject):
        raise FileFormatError("integral needs a bialgebra or Hopf file")
    where = "in_dual" if args.dual else "in_H"
    wit = find_integral(obj, where, "two_sided")
    f = obj.field
    lines = [
        f"integral ({where}, two_sided): {[f.fmt(x) for x in wit.vector]}",
        f"normalized: {wit.normalized}",
    ]
    doc = {
        "where": where,
        "vector": [f.fmt(x) for x in wit.vector],
        "normalized": wit.normalized,
    }
    code = 0 if wit.normalized else 1
    if args.check_ad:
        if not isinstance(obj, HopfObject):
            raise FileFormatError("--check-ad needs an antipode")
        if not wit.normalized:
            lines.append("ad check skipped: integral does not normalize")
            doc["ad_invariant"] = None
        elif args.dual:
            ok = check_ad_invariance(obj, wit)
            lines.append(f"ad-invariant: {ok}")
            doc["ad_invariant"] = ok
            code = 0 if ok and wit.normalized else 1
        else:
            ok = check_ad_coinvariance(obj, wit)
            lines.append(f"ad-coinvariant: {ok}")
            doc["ad_coinvariant"] = ok
            code = 0 if ok and wit.normalized else 1
    _emit(args, lines, doc)
    return code


def cmd_split(args):
    obj = object_from_json(read_file(args.file))
    if not isinstance(obj, BialgebraObject):
        raise FileFormatError("split needs a bialgebra or Hopf file")
    cand = subspace_from_json(read_file(args.candidate), obj.field, obj.dim)
    cert = certify_split_input(obj, args.side, cand)
    res = split_radical(cert, args.level) if args.side == "radical" else split_coradical(cert, args.level)
    report = reconstruct_and_verify(obj, res)
    doc = report_to_json(report)
    if args.side == "coradical":
        filt = corad_filtration_smash_check(obj, report)
        doc["filtration_checks"] = {n: ok for n, ok, _ in filt.checks}
    if args.out:
        write_file(args.out, doc)
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(dumps(doc))
    return 0


def cmd_bosonize(args):
    q = quadruple_from_json(read_file(args.quad))
    if args.dual and not isinstance(q, DualYDQuadruple):
        raise FileFormatError("--dual given but the envelope holds a primal quadruple")
    if not args.dual and not isinstance(q, YDQuadruple):
        raise FileFormatError("envelope holds a dual quadruple; pass --dual")
    bos = dual_bosonize(q) if args.dual else bosonize(q)
    doc = object_to_json(bos.bialgebra)
    if args.out:
        write_file(args.out, doc)
        print(f"bialgebra written to {args.out}")
    else:
        sys.stdout.write(dumps(doc))
    return 0


def _example_scalar(field: ScalarField, text: str, option: str):
    """A scalar parameter of `example`; one that does not parse is an input
    error."""
    try:
        return field.parse(text)
    except (ValueError, ZeroDivisionError) as e:
        raise FileFormatError(f"{option}: {e}") from None


def _example_root(field: ScalarField, text: str | None, order: int):
    """lam for `taft` and `ha`: --lam when given, else the field's smallest
    primitive root; either must be a primitive order-th root of unity."""
    if not text:
        lam = field.primitive_root_of_unity(order)
        if lam is None:
            raise FileFormatError(f"field has no primitive {order}-th root of unity")
        return lam
    lam = _example_scalar(field, text, "--lam")
    one = field.one()
    if field.pow(lam, order) != one or any(field.pow(lam, d) == one for d in range(1, order)):
        raise FileFormatError(f"--lam {text} is not a primitive {order}-th root of unity")
    return lam


def cmd_example(args):
    """Every parameter is checked before anything is built, so a malformed
    one exits 2: the field, --n >= 1, --p an odd prime, the dimension
    against MAX_DIM (no command reads a larger file), --lam and --a."""
    from . import builtin

    field = _parse_field(args.field)
    name = args.name
    if name in ("group_algebra", "dual_group_algebra", "taft") and args.n < 1:
        raise FileFormatError(f"--n must be a positive integer, not {args.n}")
    if name == "ha" and (args.p < 3 or not is_prime(args.p)):
        raise FileFormatError(f"--p must be an odd prime, not {args.p}")
    dim = {"group_algebra": args.n, "dual_group_algebra": args.n, "sweedler_h4": 4,
           "taft": args.n**2, "ha": args.p**4}[name]
    if dim > MAX_DIM:
        raise FileFormatError(f"{name} of dimension {dim} exceeds the largest supported dimension {MAX_DIM}")
    if name == "group_algebra":
        obj = builtin.group_algebra(args.n, field)
    elif name == "dual_group_algebra":
        obj = builtin.dual_group_algebra(args.n, field)
    elif name == "sweedler_h4":
        _example_root(field, None, 2)  # H4 needs -1 != 1
        obj = builtin.sweedler_h4(field)
    elif name == "taft":
        obj = builtin.taft(args.n, _example_root(field, args.lam, args.n), field)
    else:
        lam = _example_root(field, args.lam, args.p)
        a = _example_scalar(field, args.a, "--a")
        if field.is_zero(a):
            raise FileFormatError("--a must be nonzero")
        obj = builtin.build_ha(args.p, field, lam, a)
    doc = object_to_json(obj)
    if args.out:
        write_file(args.out, doc)
        print(f"{name} (dim {obj.dim}) written to {args.out}")
    else:
        sys.stdout.write(dumps(doc))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hopfsplit",
                                description="exact structure-constant computations with "
                                            "algebras, coalgebras and Hopf algebras")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", help="validate the axioms of a structure file")
    s.add_argument("file")
    s.set_defaults(func=cmd_validate)

    s = sub.add_parser("radical", help="Jacobson radical (trace form or certified candidate)")
    s.add_argument("file")
    s.add_argument("--candidate")
    s.set_defaults(func=cmd_radical)

    s = sub.add_parser("coradical", help="coradical (dual trace form or certified candidate)")
    s.add_argument("file")
    s.add_argument("--candidate")
    s.set_defaults(func=cmd_coradical)

    s = sub.add_parser("filtration", help="coradical filtration dimensions")
    s.add_argument("file")
    s.add_argument("--candidate")
    s.set_defaults(func=cmd_filtration)

    s = sub.add_parser("hochschild", help="Hochschild cohomology in a context")
    s.add_argument("file")
    s.add_argument("--coeff", required=True, help="coefficient bimodule file")
    s.add_argument("--degree", type=int, required=True, choices=(0, 1, 2))
    s.add_argument("--ctx", required=True, choices=("vect", "comod", "bicomod"))
    s.add_argument("--aux", help="auxiliary Hopf object for comodule contexts")
    s.set_defaults(func=cmd_hochschild)

    s = sub.add_parser("separable", help="separability idempotent or NotSeparable")
    s.add_argument("file")
    s.add_argument("--ctx", required=True, choices=("vect", "comod", "bicomod"))
    s.add_argument("--aux")
    s.set_defaults(func=cmd_separable)

    s = sub.add_parser("integral", help="two-sided integral and Maschke verdict")
    s.add_argument("file")
    s.add_argument("--dual", action="store_true")
    s.add_argument("--check-ad", action="store_true", dest="check_ad")
    s.set_defaults(func=cmd_integral)

    s = sub.add_parser("split", help="radical/coradical splitting pipeline")
    s.add_argument("file")
    s.add_argument("--side", required=True, choices=("radical", "coradical"))
    s.add_argument("--candidate", required=True)
    s.add_argument("--level", default="bicomodule", choices=("comodule", "bicomodule"))
    s.add_argument("--out")
    s.set_defaults(func=cmd_split)

    s = sub.add_parser("bosonize", help="bosonize a (dual) quadruple envelope")
    s.add_argument("quad")
    s.add_argument("--dual", action="store_true")
    s.add_argument("--out")
    s.set_defaults(func=cmd_bosonize)

    s = sub.add_parser("example", help="emit a builtin example structure file")
    s.add_argument("name", choices=("group_algebra", "dual_group_algebra", "sweedler_h4", "taft", "ha"))
    s.add_argument("--field", default="q")
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--p", type=int, default=3)
    s.add_argument("--lam")
    s.add_argument("--a", default="1")
    s.add_argument("--out")
    s.set_defaults(func=cmd_example)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use: parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except FileFormatError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except MATH_NEGATIVE as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        # validation failures carry mathematical meaning
        print(f"failure: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        # an input too large for this machine's memory, as the file limits
        # bound the dense arrays but not the joins
        detail = f" ({e})" if str(e) else ""
        print(f"resource error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
