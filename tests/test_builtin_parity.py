"""The chain build of the p^4 two-generator family against the word
rewriting it replaced: structure constants, Delta and the antipode from
normal-form products of monomials (`dict_reference`), compared entry for
entry with the arrays of `builtin.build_ha`."""
import random

import numpy as np
import pytest

from dict_reference import elem_mult, product_monomials, tensor_mult
from hopfsplit.builtin import _ha_from_generators, _MonomialRewriter, _monomials, _regular_generators
from hopfsplit.fields import GF


def reference_ha(p, f, lam, a):
    """mul {(i, j): {k: c}}, comul {k: {(i, j): c}} and the antipode's
    entries {(row, col): c}, as the word-rewriting build made them."""
    rw = _MonomialRewriter(p, f, lam, a)
    e = rw.idx
    monos = _monomials(p)
    mul = {}
    for m1 in monos:
        for m2 in monos:
            col = {e(*m): c for m, c in product_monomials(rw, m1, m2).items()}
            if col:
                mul[(e(*m1), e(*m2))] = col
    # Delta is multiplicative: Delta(c) = c (x) c, Delta(xi) = c (x) xi + xi (x) 1
    dc = {(e(1, 0, 0), e(1, 0, 0)): f.one()}
    dx1 = {(e(1, 0, 0), e(0, 1, 0)): f.one(), (e(0, 1, 0), e(0, 0, 0)): f.one()}
    dx2 = {(e(1, 0, 0), e(0, 0, 1)): f.one(), (e(0, 0, 1), e(0, 0, 0)): f.one()}
    comul = {}
    for i, j, r in monos:
        d = {(e(0, 0, 0), e(0, 0, 0)): f.one()}
        for g, times in ((dc, i), (dx1, j), (dx2, r)):
            for _ in range(times):
                d = tensor_mult(f, mul, d, g)
        comul[e(i, j, r)] = d
    # S(c^i x1^j x2^r) = S(x2)^r S(x1)^j S(c)^i, S(c) = c^-1, S(xi) = -c^-1 xi
    cinv = {(p * p - 1, 0, 0): f.one()}
    sx = [{m: f.neg(c) for m, c in times(cinv).items()} for times in (rw.times_x1, rw.times_x2)]
    s = {}
    for i, j, r in monos:
        acc = {(0, 0, 0): f.one()}
        for g, times in ((sx[1], r), (sx[0], j), (cinv, i)):
            for _ in range(times):
                acc = elem_mult(rw, acc, g)
        for m, c in acc.items():
            s[(e(*m), e(i, j, r))] = c
    return mul, comul, s


def _sorted_arrays(entries, order):
    """Arrays (i, j, k, v) of (i, j, k, v) tuples, sorted by the legs in order."""
    arr = np.array(sorted(entries, key=lambda t: tuple(t[x] for x in order)), dtype=np.int64).reshape(-1, 4)
    return arr.T


def _assert_parity(p, f, lam, a):
    h = _ha_from_generators(p, f, *_regular_generators(_MonomialRewriter(p, f, lam, a)))
    mul, comul, s = reference_ha(p, f, lam, a)
    want = _sorted_arrays([(i, j, k, c) for (i, j), col in mul.items() for k, c in col.items()], (0, 1, 2))
    got = h.as_algebra().table
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    want = _sorted_arrays([(i, j, k, c) for k, col in comul.items() for (i, j), c in col.items()], (2, 0, 1))
    got = h.as_coalgebra().table
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    want_s = np.zeros((p**4, p**4), dtype=np.int64)
    for (row, col), c in s.items():
        want_s[row, col] = c
    assert np.array_equal(h.antipode._d, want_s)


@pytest.mark.parametrize("lam", [2, 4])
@pytest.mark.parametrize("a", range(1, 7))
def test_chain_build_matches_word_rewriting_f7(lam, a):
    _assert_parity(3, GF(7), lam, a)


@pytest.mark.parametrize("lam, a", [(3, 1), (3, 5), (9, 12), (9, 2)])
def test_chain_build_matches_word_rewriting_f13(lam, a):
    _assert_parity(3, GF(13), lam, a)


def test_perturbed_generator_fails_validation():
    f = GF(7)
    rc, rx1, rx2 = _regular_generators(_MonomialRewriter(3, f, 2, 1))
    assert _ha_from_generators(3, f, rc, rx1, rx2).validate().ok
    rng = random.Random(0)
    nonzero = list(zip(*np.nonzero(rx1)))
    for row, col in rng.sample(nonzero, 3) + [(rng.randrange(81), rng.randrange(81)) for _ in range(2)]:
        bad = rx1.copy()
        bad[row, col] = (bad[row, col] + 1 + rng.randrange(6)) % 7
        rep = _ha_from_generators(3, f, rc, bad, rx2).validate()
        assert not rep.ok, (row, col)
