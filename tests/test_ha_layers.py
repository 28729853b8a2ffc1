"""The layer walks of the p^4 family against the dense chain they
replaced (`ha_chain_reference`): the same product and coproduct arrays and
the same antipode, and no dense n x n product in the build."""
import sys

import numpy as np
import pytest

from ha_chain_reference import dense_chain
from hopfsplit import linalg
from hopfsplit.builtin import _ha_from_generators, _MonomialRewriter, _regular_generators, build_ha
from hopfsplit.fields import GF


def _assert_same_arrays(p, f, lam, a):
    gens = _regular_generators(_MonomialRewriter(p, f, lam, a))
    h = _ha_from_generators(p, f, *gens)
    mul, comul, s = dense_chain(p, f, *gens)
    for got, want in ((h.as_algebra().table, mul), (h.as_coalgebra().table, comul)):
        assert len(got) == len(want) == 4
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert np.array_equal(h.antipode._d, s)


@pytest.mark.parametrize("lam", [2, 4])
@pytest.mark.parametrize("a", range(1, 7))
def test_layers_match_the_dense_chain_f7(lam, a):
    _assert_same_arrays(3, GF(7), lam, a)


@pytest.mark.parametrize("lam, a", [(3, 1), (9, 12)])
def test_layers_match_the_dense_chain_f13(lam, a):
    _assert_same_arrays(3, GF(13), lam, a)


def test_layers_match_the_dense_chain_mersenne_31():
    f = GF(2**31 - 1)
    _assert_same_arrays(3, f, f.primitive_root_of_unity(3), 5)


def test_the_build_makes_no_dense_square_product(monkeypatch):
    n = 81
    shapes = []
    real = linalg._matmul

    def spy(field, a, b):
        shapes.append((a.shape, b.shape))
        return real(field, a, b)

    for name, mod in list(sys.modules.items()):
        if name.startswith("hopfsplit") and getattr(mod, "_matmul", None) is real:
            monkeypatch.setattr(mod, "_matmul", spy)
    h = build_ha(3, GF(7), 2, 1)
    assert h.dim == n
    assert shapes  # the spy is in place: the validation's generating-set search multiplies rows
    assert ((n, n), (n, n)) not in shapes
