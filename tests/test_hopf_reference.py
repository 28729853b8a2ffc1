"""The array kernels of hopf.py against the dict loops they replace: the
integral system, eps multiplicative and the antipode check, on the builtin
Hopf objects and on single-constant mutations of them."""
import itertools
import random

import pytest

from hopfsplit.builtin import dual_group_algebra, group_algebra, sweedler_h4, taft
from hopfsplit.fields import GF, QQ
from hopfsplit.hopf import BialgebraObject, _integral_system, check_antipode, find_integral
from hopfsplit.linalg import Matrix, kernel_from_rref
from hopfsplit.tensors import v_basis, v_eq, v_zero

# -- the dict loops, as they were before the array kernels -----------------


def loop_integral_system(h, where, side):
    f = h.field
    n = h.dim
    blocks = []
    sides = ("left", "right") if side == "two_sided" else (side,)
    for s in sides:
        entries: dict = {}
        if where == "in_H":
            for x in range(n):
                for out in range(n):
                    row: dict = {}
                    for t in range(n):
                        pair = (x, t) if s == "left" else (t, x)
                        v = h.mul.get(pair, {}).get(out)
                        if v is not None:
                            row[t] = f.add(row.get(t, f.zero()), v)
                    row[out] = f.sub(row.get(out, f.zero()), h.counit[x])
                    for t, v in row.items():
                        if not f.is_zero(v):
                            entries[(x * n + out, t)] = v
        else:
            for k in range(n):
                for out in range(n):
                    row: dict = {}
                    for (i, j), c in h.comul.get(k, {}).items():
                        leg, coef = (j, i) if s == "left" else (i, j)
                        if coef == out:
                            row[leg] = f.add(row.get(leg, f.zero()), c)
                    row[k] = f.sub(row.get(k, f.zero()), h.unit[out])
                    for t, v in row.items():
                        if not f.is_zero(v):
                            entries[(k * n + out, t)] = v
        blocks.append(Matrix.from_entries(f, n * n, n, entries))
    m = blocks[0]
    for b2 in blocks[1:]:
        m = m.vstack(b2)
    return m


def loop_eps_multiplicative(b):
    f = b.field
    eps = b.counit
    for (i, j), col in b.mul.items():
        lhs = f.zero()
        for k, c in col.items():
            lhs = f.add(lhs, f.mul(c, eps[k]))
        if lhs != f.mul(eps[i], eps[j]):
            return False, f"eps(e{i} e{j})"
    for i in range(b.dim):
        for j in range(b.dim):
            if (i, j) not in b.mul and not f.is_zero(f.mul(eps[i], eps[j])):
                return False, f"eps(e{i} e{j}) = 0 but eps(e{i})eps(e{j}) != 0"
    return True, None


def loop_check_antipode(b, s):
    f = b.field
    for k in range(b.dim):
        target = [f.mul(b.counit[k], x) for x in b.unit]
        left = v_zero(f, b.dim)
        right = v_zero(f, b.dim)
        for (i, j), c in b.comul.get(k, {}).items():
            si = s.apply(v_basis(f, b.dim, i))
            left = [f.add(x, f.mul(c, y)) for x, y in zip(left, b.product(si, v_basis(f, b.dim, j)))]
            sj = s.apply(v_basis(f, b.dim, j))
            right = [f.add(x, f.mul(c, y)) for x, y in zip(right, b.product(v_basis(f, b.dim, i), sj))]
        if not v_eq(f, left, target):
            return False, f"m(S (x) id)Delta != u eps at basis {k}"
        if not v_eq(f, right, target):
            return False, f"m(id (x) S)Delta != u eps at basis {k}"
    return True, None


# -- inputs ----------------------------------------------------------------


def _taft(n, p):
    f = GF(p)
    return taft(n, f.primitive_root_of_unity(n), f)


HOPF = {
    **{f"taft{n}": (lambda n=n, p=p: _taft(n, p)) for n, p in ((3, 7), (4, 5), (5, 11), (6, 7), (7, 29))},
    "kZ5_q": lambda: group_algebra(5, QQ),
    "kZ4_f2": lambda: group_algebra(4, GF(2)),
    "kZ5_dual_q": lambda: dual_group_algebra(5, QQ),
    "kZ6_dual_f3": lambda: dual_group_algebra(6, GF(3)),
    "h4_q": lambda: sweedler_h4(QQ),
    "h4_big_p": lambda: sweedler_h4(GF(2**61 - 1)),
}


def _copy(h, mul=None, unit=None, comul=None, counit=None):
    return BialgebraObject(h.field, h.dim, h.mul if mul is None else mul, h.unit if unit is None else unit,
                           h.comul if comul is None else comul, h.counit if counit is None else counit)


def _mutants(h, count, seed):
    """Bialgebras differing from h in one structure constant: a changed,
    zeroed or new product or coproduct coefficient, or a changed unit or
    counit coordinate."""
    rng = random.Random(seed)
    f, n = h.field, h.dim
    out = []
    for t in range(count):
        c = f.from_int(rng.randrange(1, 5))
        kind = t % 5
        if kind == 0:
            mul = {key: dict(col) for key, col in h.mul.items()}
            key = rng.choice(sorted(mul))
            k = rng.choice(sorted(mul[key]))
            mul[key][k] = f.add(mul[key][k], c)
            out.append(_copy(h, mul=mul))
        elif kind == 1:
            mul = {key: dict(col) for key, col in h.mul.items()}
            key = (rng.randrange(n), rng.randrange(n))
            mul.setdefault(key, {})[rng.randrange(n)] = c if rng.random() < 0.7 else f.zero()
            out.append(_copy(h, mul=mul))
        elif kind == 2:
            comul = {k: dict(col) for k, col in h.comul.items()}
            k = rng.randrange(n)
            ij = (rng.randrange(n), rng.randrange(n))
            comul.setdefault(k, {})[ij] = f.add(comul.get(k, {}).get(ij, f.zero()), c)
            out.append(_copy(h, comul=comul))
        elif kind == 3:
            counit = list(h.counit)
            counit[rng.randrange(n)] = c
            out.append(_copy(h, counit=counit))
        else:
            unit = list(h.unit)
            unit[rng.randrange(n)] = c
            out.append(_copy(h, unit=unit))
    return out


@pytest.fixture(scope="module", params=sorted(HOPF))
def hopf(request):
    return HOPF[request.param]()


# -- the integral system ---------------------------------------------------


@pytest.mark.parametrize("where", ["in_H", "in_dual"])
def test_integral_system_matches_loop(hopf, where):
    for side in ("left", "right", "two_sided"):
        m = _integral_system(hopf, where, side)
        assert m.dense() == loop_integral_system(hopf, where, side)
        assert kernel_from_rref(m.out_size, *m.rref()) == loop_integral_system(hopf, where, side).kernel()


def test_integral_system_matches_loop_on_mutants(hopf):
    for b in _mutants(hopf, 10, hopf.dim):
        for where in ("in_H", "in_dual"):
            for side in ("left", "right"):
                assert _integral_system(b, where, side).dense() == loop_integral_system(b, where, side)


def test_integral_system_matches_loop_on_flagship(ha_f7):
    for where in ("in_H", "in_dual"):
        assert _integral_system(ha_f7, where, "two_sided").dense() == loop_integral_system(ha_f7, where, "two_sided")
    t = find_integral(ha_f7, "in_H", "two_sided")
    assert not t.normalized  # not semisimple: the Maschke obstruction


# -- eps multiplicative and the antipode -----------------------------------


def test_eps_multiplicative_matches_loop(hopf):
    assert hopf._check_eps_multiplicative() == loop_eps_multiplicative(hopf) == (True, None)
    verdicts = []
    for b in _mutants(hopf, 25, 7 * hopf.dim):
        got = b._check_eps_multiplicative()
        assert got == loop_eps_multiplicative(b)
        verdicts.append(got[0])
    assert not all(verdicts)


def test_eps_multiplicative_witness_order():
    f = GF(5)
    h = group_algebra(3, f)
    # (2, 1) and (0, 0) both fail; (2, 1) is listed first, so it is named.
    # (1, 1), absent from the table, fails only once every listed pair holds
    rest = {key: col for key, col in h.mul.items() if key not in ((2, 1), (1, 1))}
    mul = {(2, 1): {0: 2}, **rest, (0, 0): {0: 3}}
    b = _copy(h, mul=mul)
    assert b._check_eps_multiplicative() == loop_eps_multiplicative(b) == (False, "eps(e2 e1)")
    mul[(2, 1)], mul[(0, 0)] = {0: 1}, {0: 1}
    b = _copy(h, mul=mul)
    want = (False, "eps(e1 e1) = 0 but eps(e1)eps(e1) != 0")
    assert b._check_eps_multiplicative() == loop_eps_multiplicative(b) == want


def test_check_antipode_matches_loop(hopf):
    assert check_antipode(hopf, hopf.antipode) == loop_check_antipode(hopf, hopf.antipode) == (True, None)
    rng = random.Random(hopf.dim)
    f, n = hopf.field, hopf.dim
    verdicts = []
    for t in range(12):
        s = hopf.antipode
        if t % 3 < 2:
            ij = (rng.randrange(n), rng.randrange(n))
            bump = Matrix.from_entries(f, n, n, {ij: f.from_int(rng.randrange(1, 4))})
            s = s + bump
            b = hopf
        else:
            b = _mutants(hopf, 5, t)[t % 5]
        got = check_antipode(b, s)
        assert got == loop_check_antipode(b, s)
        verdicts.append(got[0])
    assert not all(verdicts)


def test_check_antipode_names_left_before_right():
    # S = id on k[Z_3] fails both identities, first at g^1: left is named
    h = group_algebra(3, QQ)
    ident = Matrix.identity(QQ, 3)
    want = (False, "m(S (x) id)Delta != u eps at basis 1")
    assert check_antipode(h, ident) == loop_check_antipode(h, ident) == want
    # every single bump of the Sweedler product table; some break only the
    # right identity, at a basis element where the left one holds
    h4 = sweedler_h4(QQ)
    named = set()
    for i, j, k in itertools.product(range(4), repeat=3):
        mul = {key: dict(col) for key, col in h4.mul.items()}
        mul.setdefault((i, j), {})[k] = mul.get((i, j), {}).get(k, QQ.zero()) + 1
        b = _copy(h4, mul=mul)
        got = check_antipode(b, h4.antipode)
        assert got == loop_check_antipode(b, h4.antipode)
        named.add(got[1].split(")Delta")[0] if got[1] else None)
    assert named == {"m(S (x) id", "m(id (x) S", None}
