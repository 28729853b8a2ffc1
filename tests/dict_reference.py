"""Dict-table helpers that the package used before its structure constants
became arrays, kept as references for the tests: sparse vectors as
{index: c} dicts, products read from `.mul`, and the normal-form word
products of the p^4 two-generator family."""


def dense_to_sparse(field, u, arity=1, dims=None) -> dict:
    """Dense list -> dict keyed by index tuples (splitting by dims if given)."""
    out = {}
    for i, a in enumerate(u):
        if field.is_zero(a):
            continue
        if dims is None:
            out[(i,)] = a
        else:
            key = []
            rest = i
            for d in reversed(dims):
                key.append(rest % d)
                rest //= d
            out[tuple(reversed(key))] = a
    return out


def sparse_add(field, a: dict, b: dict, coeff=None) -> dict:
    out = dict(a)
    for k, c in b.items():
        if coeff is not None:
            c = field.mul(coeff, c)
        s = field.add(out.get(k, field.zero()), c)
        if field.is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


def sparse_eq(field, a: dict, b: dict) -> bool:
    if a == b:  # zero-free dicts compare directly
        return True
    keys = set(a) | set(b)
    z = field.zero()
    return all(a.get(k, z) == b.get(k, z) for k in keys)


def pair_product(a, i: int, j: int) -> dict:
    """e_i * e_j as a sparse {k: c} dict."""
    return a.mul.get((i, j), {})


def product_sparse(a, u: dict, v: dict) -> dict:
    """u v for sparse {index: c} vectors, from the dict table."""
    f = a.field
    out: dict = {}
    for i, x in u.items():
        for j, y in v.items():
            xy = f.mul(x, y)
            for k, c in a.mul.get((i, j), {}).items():
                s = f.add(out.get(k, f.zero()), f.mul(xy, c))
                if f.is_zero(s):
                    out.pop(k, None)
                else:
                    out[k] = s
    return out


def product_monomials(rw, m1, m2) -> dict:
    """(c^i1 x1^j1 x2^r1)(c^i2 x1^j2 x2^r2) in normal form, by right
    multiplication with the generators of m2 (rw a builtin._MonomialRewriter)."""
    i2, j2, r2 = m2
    elem = {m1: rw.f.one()}
    if i2:
        elem = rw.times_c(elem, i2)
    for _ in range(j2):
        elem = rw.times_x1(elem)
    for _ in range(r2):
        elem = rw.times_x2(elem)
    return elem


def elem_mult(rw, u: dict, v: dict) -> dict:
    """u v for elements {(i, j, r): c} of the p^4 family."""
    f = rw.f
    out: dict = {}
    for m1, c1 in u.items():
        for m2, c2 in v.items():
            for m, c in product_monomials(rw, m1, m2).items():
                s = f.add(out.get(m, f.zero()), f.mul(c, f.mul(c1, c2)))
                if f.is_zero(s):
                    out.pop(m, None)
                else:
                    out[m] = s
    return out


def tensor_mult(f, mul: dict, u: dict, v: dict) -> dict:
    """u v in A (x) A for elements {(a, b): c}, from A's dict table."""
    out: dict = {}
    for (a1, b1), c1 in u.items():
        for (a2, b2), c2 in v.items():
            c12 = f.mul(c1, c2)
            for ka, ca in mul.get((a1, a2), {}).items():
                for kb, cb in mul.get((b1, b2), {}).items():
                    key = (ka, kb)
                    s = f.add(out.get(key, f.zero()), f.mul(c12, f.mul(ca, cb)))
                    if f.is_zero(s):
                        out.pop(key, None)
                    else:
                        out[key] = s
    return out
