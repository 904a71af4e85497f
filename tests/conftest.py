import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from lsicert import model as lsimodel
from lsicert.instances import model_2d
from lsicert.model import BlockPartition, toeplitz_matrix

settings.register_profile(
    "default",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves running a thread it did not start with."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate()
              if t not in before and t.is_alive()]
    assert not leaked, f"threads left running: {leaked}"


# Verifier arguments that are no certified constant: each is refused
# with ValueError before any work.
BAD_RHO = (None, 0.0, -1.0, np.nan, np.inf)


def bad_rho_k(n: int) -> list:
    """Block constants refused for an n-block model: a wrong length, an
    entry <= 0 and a non-finite entry."""
    ones = [1.0] * n
    return [ones[:-1], ones + [1.0], [0.0] + ones[1:], [-1.0] + ones[1:],
            [np.nan] + ones[1:], [np.inf] + ones[1:], None]


def must_not_run(*args, **kwargs):
    """Stand-in for a routine the code under test must not reach: the
    first one a verifier calls after its argument checks, or one that
    computes a constant no `verify` suite reads."""
    raise AssertionError("a routine that must not run was called")


@pytest.fixture
def model2d():
    return model_2d()


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


@pytest.fixture
def banded_solves(monkeypatch):
    """The band storage shape of every LAPACK dsbevx call that
    model.extreme_eigvalsh makes during the test, in call order."""
    calls = []
    banded = lsimodel.dsbevx

    def counted(band, *args, **kwargs):
        calls.append(band.shape)
        return banded(band, *args, **kwargs)

    monkeypatch.setattr(lsimodel, "dsbevx", counted)
    return calls


@pytest.fixture
def banded_choleskys(monkeypatch):
    """The band storage shape of every LAPACK dpbtrf call that the
    positive-definiteness check of a Gaussian model makes during the
    test, in call order."""
    calls = []
    factor = lsimodel.dpbtrf

    def counted(band, *args, **kwargs):
        calls.append(band.shape)
        return factor(band, *args, **kwargs)

    monkeypatch.setattr(lsimodel, "dpbtrf", counted)
    return calls


def batching_cases():
    """(precision, partition) pairs on which batched block routines are
    checked against per-block loops: a permuted mixed-size partition, a
    banded K whose non-adjacent cross blocks are zero, singletons in
    coordinate order and permuted, the m = 64 chain with mixed signs,
    singletons mixed with 2-blocks on a banded K, and one block."""
    rng = np.random.default_rng(7)
    perm = rng.permutation(15)
    mixed, start = [], 0
    for size in (3, 1, 2, 4, 1, 2, 2):
        mixed.append(tuple(perm[start:start + size]))
        start += size
    raw = rng.standard_normal((15, 15))
    dense = raw @ raw.T + 15.0 * np.eye(15)
    banded = toeplitz_matrix(12, 3.0, {1: 0.7})
    return {
        "mixed sizes": (dense, BlockPartition(tuple(mixed))),
        "banded, zero cross blocks": (banded, BlockPartition(
            tuple(tuple(range(i, i + 3)) for i in range(0, 12, 3)))),
        "all singletons": (banded, BlockPartition(
            tuple((i,) for i in range(12)))),
        "permuted singletons": (dense, BlockPartition(
            tuple((int(i),) for i in perm))),
        "chain, mixed signs": (
            toeplitz_matrix(64, 3.0, {1: -1.0, 2: 0.3}),
            BlockPartition(tuple((i,) for i in range(64)))),
        "banded, singletons and 2-blocks": (
            toeplitz_matrix(12, 3.0, {1: 0.7, 2: -0.4}),
            BlockPartition(((0,), (1, 2), (3,), (4, 5), (6, 7), (8,),
                            (9, 10), (11,)))),
        "one block": (dense, BlockPartition((tuple(range(15)),))),
    }


# Gaussian documents whose precision is indefinite, with the message that
# refuses each: a 64-site chain with diag 1 and band {1: 1}, whose
# eigenvalues 1 + 2 cos(k pi / 65) go below 0 (banded route), and a dense
# 3 x 3 with eigenvalues -1, 1 and 3 (dense route).
_PD_MESSAGE = ("precision must be positive definite for a Gaussian model "
               "(min eigenvalue {})")
INDEFINITE_DOCS = {
    "banded chain": (
        {"dim": 64, "partition": [[i] for i in range(64)],
         "toeplitz": {"m": 64, "diag": 1.0, "band": {"1": 1.0}}},
        _PD_MESSAGE.format(-0.997664)),
    "dense 3x3": (
        {"dim": 3, "partition": [[0], [1], [2]],
         "precision": [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
        _PD_MESSAGE.format(-1)),
}
