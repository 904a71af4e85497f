"""Acceptance gate.

One test per acceptance criterion; each prints a single verdict line
(run with -s to see them) and asserts it.  Criteria with runtime budgets
time their own workload.
"""

import time
from functools import lru_cache

import numpy as np
from scipy.stats import multivariate_normal

from lsicert.criteria import (
    criteria_report,
    solve_rho_marton,
    toeplitz_spectrum_report,
)
from lsicert.fokker_planck import dissipation_check
from lsicert.gaussian import GaussianDist, gaussian_target, kl, w2
from lsicert.gibbs import verify_contraction, verify_theorem1
from lsicert.instances import (
    model_2d,
    random_certified_model,
    random_gaussian,
)
from lsicert.oracles import prop4_check, transport_check

from reference import (entropy_drop, fisher, quad_fisher, quad_kl,
                       random_attractive_chain, w2_empirical_1d)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, detail or f"criterion {num} ({name}) failed"


def _lam_min(model) -> float:
    return float(np.linalg.eigvalsh(model.precision)[0])


@lru_cache(maxsize=None)
def _chains():
    rng = np.random.default_rng(20260101)
    return tuple(random_attractive_chain(rng) for _ in range(100))


@lru_cache(maxsize=None)
def _chain_certificates():
    return tuple(solve_rho_marton(m) for m in _chains())


@lru_cache(maxsize=None)
def _certified_reports():
    rng = np.random.default_rng(20260102)
    out = []
    for _ in range(500):
        model = random_certified_model(rng)
        out.append((model, criteria_report(model)))
    return tuple(out)


def test_criterion_01_toeplitz_sections():
    t0 = time.perf_counter()
    alt = toeplitz_spectrum_report(512, 0.0, {1: 1.0, 2: -1.0})
    pos = toeplitz_spectrum_report(512, 0.0, {1: 1.0, 2: 1.0})
    elapsed = time.perf_counter() - t0
    ok = (abs(alt.max_symbol - 2.25) <= 1e-6
          and abs(pos.max_symbol - 4.0) <= 1e-6
          and abs(alt.lambda_max_bm - 2.25) <= 0.02
          and abs(alt.sup_abs_symbol - 4.0) <= 1e-6
          and alt.note != ""
          and elapsed < 5.0)
    _verdict(1, "toeplitz symbols and sections", ok,
             f"max={alt.max_symbol} lam_max={alt.lambda_max_bm} "
             f"elapsed={elapsed:.2f}s")


def test_criterion_02_gaussian_tightness():
    t0 = time.perf_counter()
    models = (model_2d(),) + _chains()
    rhos = (solve_rho_marton(model_2d()),) + _chain_certificates()
    worst = max(abs(rho - _lam_min(m)) for m, rho in zip(models, rhos))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _verdict(2, "tightness on attractive chains", ok,
             f"worst gap {worst:.3g}, elapsed={elapsed:.2f}s")


def test_criterion_03_criterion_dominance():
    t0 = time.perf_counter()
    bad = sum(1 for _, rep in _certified_reports()
              if rep.rho_or is not None
              and rep.rho_or > rep.rho_marton + 1e-8)
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 30.0
    _verdict(3, "block criterion never beats interaction criterion", ok,
             f"{bad} violations, elapsed={elapsed:.2f}s")


def test_criterion_04_soundness():
    pairs = [(m, rho) for m, rho in zip(_chains(), _chain_certificates())]
    pairs += [(m, rep.rho_marton) for m, rep in _certified_reports()]
    pairs.append((model_2d(), solve_rho_marton(model_2d())))
    bad = sum(1 for m, rho in pairs if rho > _lam_min(m) + 1e-8)
    _verdict(4, "certified constant never exceeds the Gaussian one",
             bad == 0, f"{bad} violations over {len(pairs)} models")


def test_criterion_05_block_decomposition():
    rng = np.random.default_rng(20260105)
    bad = 0
    for model, rep in _certified_reports()[:200]:
        p = random_gaussian(rng, model.dim)
        chk = verify_theorem1(p, model, rep.rho_k, rep.rho_marton)
        bad += not chk.holds
    _verdict(5, "block entropy decomposition", bad == 0,
             f"{bad} violations at 1e-9 slack")


def test_criterion_06_entropy_drop_identity():
    rng = np.random.default_rng(20260106)
    worst = 0.0
    for _ in range(200):
        model = random_certified_model(rng)
        p = random_gaussian(rng, model.dim)
        k = int(rng.integers(0, model.partition.n))
        lhs, rhs = entropy_drop(p, model, k)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    _verdict(6, "entropy drop identity", worst <= 1e-9,
             f"worst normalized gap {worst:.3g}")


def test_criterion_07_gibbs_contraction():
    t0 = time.perf_counter()
    model = model_2d()
    rep = criteria_report(model)
    q = gaussian_target(model)
    p0 = GaussianDist(q.mean + np.array([2.0, -1.0]), np.eye(2))
    rows = verify_contraction(p0, model, rep.rho_k, rep.rho_marton, steps=8)
    elapsed = time.perf_counter() - t0
    factor_ok = abs((1.0 - rep.rho_marton / sum(rep.rho_k)) - 0.75) <= 1e-9
    ok = (factor_ok and all(r.holds for r in rows)
          and [r.param for r in rows] == [f"step={m}" for m in range(9)]
          and elapsed < 60.0)
    margins = [r.bound - (r.value - r.tolerance) for r in rows]
    _verdict(7, "weighted sweep contraction", ok,
             f"margins={['%.3g' % m for m in margins]} "
             f"elapsed={elapsed:.2f}s")


def test_criterion_08_dissipation():
    rng = np.random.default_rng(20260108)
    times = np.linspace(0.0, 5.0, 5001)
    bad = 0
    for _ in range(20):
        model = random_certified_model(rng)
        p0 = random_gaussian(rng, model.dim)
        trace, (residual, _) = dissipation_check(p0, model, times)
        integral = float(np.trapezoid(trace.fisher_values, times))
        drop = float(trace.kl_values[0] - trace.kl_values[-1])
        rel = abs(drop - integral) / max(drop, 1e-12)
        if not (residual.holds and rel <= 1e-4):
            bad += 1
    _verdict(8, "entropy dissipation identity", bad == 0,
             f"{bad} of 20 instances failed")


def test_criterion_09_transport():
    rng = np.random.default_rng(20260109)
    bad = 0
    for model, rep in _certified_reports():
        p = random_gaussian(rng, model.dim)
        bad += not transport_check(p, model, rep.rho_marton).holds

    # near-tightness: mean shifts along the softest eigendirection of
    # chains, where the certified constant is the true one
    ratios = []
    for model in _chains()[:20]:
        rep = criteria_report(model)
        w, vecs = np.linalg.eigh(model.precision)
        q = gaussian_target(model)
        p = GaussianDist(q.mean + 0.5 * vecs[:, 0], q.cov)
        res = transport_check(p, model, rep.rho_marton)
        bad += not res.holds
        ratios.append(res.value / res.bound)
    ok = bad == 0 and min(ratios) >= 0.99
    _verdict(9, "transport inequality", ok,
             f"{bad} violations, min tight ratio {min(ratios):.6f}")


def test_criterion_10_mean_shift_inequalities():
    rng = np.random.default_rng(20260110)
    bad = 0
    for model, rep in _certified_reports():
        z = rng.normal(loc=model.mean, scale=2.0)
        u = rng.normal(loc=model.mean, scale=2.0)
        bad += not all(c.holds for c in prop4_check(model, rep.rho_k,
                                                    rep.delta, z, u))
    _verdict(10, "conditional mean shift inequalities", bad == 0,
             f"{bad} violations over 500 triples")


def test_criterion_11_oracle_agreement():
    def density(g):
        return multivariate_normal(g.mean, g.cov).pdf

    pairs_1d = [
        (GaussianDist(np.array([1.0]), np.eye(1)),
         GaussianDist(np.array([0.0]), np.eye(1))),
        (GaussianDist(np.array([0.0]), 2.0 * np.eye(1)),
         GaussianDist(np.array([0.0]), np.eye(1))),
        (GaussianDist(np.array([-0.5]), 0.7 * np.eye(1)),
         GaussianDist(np.array([0.3]), 1.3 * np.eye(1))),
    ]
    worst = 0.0
    for p, q in pairs_1d:
        box = [(-14.0, 14.0)]
        worst = max(worst,
                    abs(quad_kl(density(p), density(q), box, 4001)
                        - kl(p, q)),
                    abs(quad_fisher(density(p), density(q), box, 4001)
                        - fisher(p, q)))

    model = model_2d()
    q2 = gaussian_target(model)
    p2 = GaussianDist(np.array([0.7, -0.3]),
                      np.array([[1.2, 0.3], [0.3, 0.9]]))
    box2 = [(-12.0, 12.0)] * 2
    worst = max(worst,
                abs(quad_kl(density(p2), density(q2), box2, 1601)
                    - kl(p2, q2)),
                abs(quad_fisher(density(p2), density(q2), box2, 1601)
                    - fisher(p2, q2)))

    rng = np.random.default_rng(20260111)
    pw = GaussianDist(np.array([1.0]), np.array([[2.0]]))
    qw = GaussianDist(np.array([0.0]), np.array([[1.0]]))
    emp = w2_empirical_1d(pw.sample(rng, 100_000), qw.sample(rng, 100_000))
    w2_gap = abs(emp - w2(pw, qw))

    ok = worst <= 1e-5 and w2_gap <= 0.02
    _verdict(11, "oracle agreement", ok,
             f"worst quadrature gap {worst:.3g}, w2 gap {w2_gap:.3g}")
