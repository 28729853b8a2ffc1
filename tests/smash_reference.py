"""The (co)actions pi and sigma induce on a bialgebra A, as dense matrices,
kept as a reference for the tests: the package reads them as stage maps
(`smash._coaction_pipelines`, `smash._action_pipelines`)."""
from hopfsplit.linalg import Matrix, SparseMap
from hopfsplit.smash import _action_pipelines, _coaction_pipelines


def coactions_from_pi(a, pi: Matrix, dh: int):
    """(rho_l, rho_r) = ((pi (x) id) Delta, (id (x) pi) Delta) as Matrices."""
    return tuple(p.matrix() for p in _coaction_pipelines(a, SparseMap.from_matrix(pi, (a.dim,), (dh,))))


def actions_from_sigma(a, sigma: Matrix, dh: int):
    """(act_l, act_r) = (sigma(h) x, x sigma(h)) as Matrices."""
    return tuple(p.matrix() for p in _action_pipelines(a, SparseMap.from_matrix(sigma, (dh,), (a.dim,))))
