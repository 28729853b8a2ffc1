import pytest
from hypothesis import settings

from hopfsplit.fields import GF, QQ

# `pytest --hypothesis-profile=ci` (the tier-1 CI step): a failing example
# prints the blob that reproduces it, and no example fails on a slow runner
settings.register_profile("ci", print_blob=True, deadline=None)


@pytest.fixture(scope="session")
def h4_qq():
    from hopfsplit.builtin import sweedler_h4

    return sweedler_h4(QQ)


@pytest.fixture(scope="session")
def ha_f7():
    """The flagship p^4 example at p = 3 over F_7 (lam = 2, a = 1)."""
    from hopfsplit.builtin import build_ha

    return build_ha(3, GF(7), 2, 1)


@pytest.fixture(scope="session")
def ha_report(ha_f7):
    """Coradical-side split report for the flagship, shared by the
    acceptance criteria that inspect it."""
    from hopfsplit.linalg import Subspace
    from hopfsplit.pipeline import certify_split_input, reconstruct_and_verify, split_coradical
    from hopfsplit.tensors import v_basis

    f = GF(7)
    d = Subspace.from_vectors(f, 81, [v_basis(f, 81, i * 9) for i in range(9)])
    cert = certify_split_input(ha_f7, "coradical", d)
    res = split_coradical(cert, "bicomodule")
    return reconstruct_and_verify(ha_f7, res)
