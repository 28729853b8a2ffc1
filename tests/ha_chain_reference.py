"""The p^4 family's structure arrays as the package built them before the
layer walks, kept as a reference for the tests: walking the monomials m =
c^i x1^j x2^r in index order, one step from the previous monomial of the
chain gives

    R_(m g) = R_g R_m
    Delta(m c) = R_c D_m R_c^T,  Delta(m x) = R_c D_m R_x^T + R_x D_m
    S(m g) = L_(S g) S(m)

as dense n x n products, D_m being Delta(m) as an n x n matrix and L_y the
left multiplication by y, whose column t is R_t y."""
import numpy as np

from hopfsplit.builtin import _monomials
from hopfsplit.linalg import Matrix, _matmul


def _chain_steps(p: int):
    """(t, g) for each monomial t but 1, in index order: t = m g, with g
    = 0 (c), 1 (x1) or 2 (x2) the last generator of t.  The walk keeps the
    chain (c^i, c^i x1^j, c^i x1^j x2^r) of the monomials reached last; m
    is its entry g, and t replaces that entry and the ones after it."""
    for t, (i, j, r) in enumerate(_monomials(p)):
        if t:
            yield t, 0 if j == r == 0 else 1 if r == 0 else 2


def dense_chain(p: int, f, rc, rx1, rx2):
    """(mul, comul, s): the product and coproduct constants (i, j, k, v),
    sorted as the package stores them, and the antipode's n x n array, from
    the right multiplications of the generators (n x n arrays, column t
    holding e_t g)."""
    n = p**4
    gens = (rc, rx1, rx2)
    inv_c = (p * p - 1) * p * p  # the index of c^(p^2 - 1) = c^-1 = S(c)
    eye = Matrix.identity(f, n)._d
    sg = np.stack([eye[inv_c], f.reduce(-rx1[:, inv_c]), f.reduce(-rx2[:, inv_c])], axis=1)
    one = np.full((n, n), f.zero(), dtype=rc.dtype)
    one[0, 0] = f.one()

    def mm(x, y):
        return _matmul(f, x, y)

    def record(t, rm, dm):
        k, m1 = np.nonzero(rm)  # e_m1 e_t has rm[k, m1] on e_k
        mul.append((m1, np.full(k.size, t), k, rm[k, m1]))
        a, b = np.nonzero(dm)
        comul.append((a, b, np.full(a.size, t), dm[a, b]))
        left.append(mm(rm, sg))  # column t of L_S(c), L_S(x1), L_S(x2)

    mul, comul, left = [], [], []
    chain = [(eye, one)] * 3  # (R_m, Delta(m))
    record(0, eye, one)
    for t, g in _chain_steps(p):
        r, d = chain[g]
        d_next = mm(mm(rc, d), gens[g].T)
        chain[g:] = [(mm(gens[g], r), d_next if g == 0 else f.reduce(d_next + mm(gens[g], d)))] * (3 - g)
        record(t, *chain[g])
    left = np.stack(left, axis=1)  # L_S(g)[:, t] = left[:, t, g]
    s = np.full((n, n), f.zero(), dtype=rc.dtype)
    s[:, 0] = eye[0]
    s_chain = [eye[0]] * 3
    for t, g in _chain_steps(p):
        s_chain[g:] = [mm(left[:, :, g], s_chain[g][:, None])[:, 0]] * (3 - g)
        s[:, t] = s_chain[g]
    mul = [np.concatenate(x) for x in zip(*mul)]
    order = np.lexsort((mul[2], mul[1], mul[0]))
    return [x[order] for x in mul], [np.concatenate(x) for x in zip(*comul)], s
