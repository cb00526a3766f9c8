"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines and timings.  Reference numbers are frozen from independent
50-digit evaluations and exact enumerations performed before the
implementation was written.
"""
import math
import time

import numpy as np
import pytest

from entrobound import (
    BoundParams,
    alpha_const,
    check_density_gap,
    check_entropy_continuity,
    check_sup_bound,
    check_xlogx_gap,
    estimate_entropy_certified,
    exact_discrete_entropy,
    expected_plugin_entropy_enum,
    kl_step_pair,
    kl_true_divergence,
    mi_adversary_demo,
    numeric_entropy,
    optimize_M,
    prop1_demo,
    quantized_companion,
    sample,
    tent_density,
    total_bound,
)
from entrobound.cli import main as cli_main
from entrobound.rng import generator, split
from reference import numeric_kl

TENT_H1 = 0.5 - math.log(2.0)


def _report(n: int, started: float, detail: str) -> None:
    print(f"ACCEPTANCE {n:02d} PASS ({time.time() - started:.1f}s) - {detail}")


def test_01_bound_regression():
    """total_bound(K=1, L=1, M=100, N=1e6, delta=0.05), each term to 1e-6."""
    started = time.time()
    bound = total_bound(BoundParams(1, 1.0, 100, 10**6, 0.05))
    # 50-digit evaluations of the three closed forms:
    assert bound.quant_bias == pytest.approx(0.026491586832740183, abs=1e-6)
    assert bound.stat_dev == pytest.approx(0.037525731659003625, abs=1e-6)
    assert bound.emp_bias == pytest.approx(9.8995099823408987e-05, abs=1e-6)
    assert bound.total == pytest.approx(0.06411631359156722, abs=1e-6)
    assert bound.total == bound.quant_bias + bound.stat_dev + bound.emp_bias
    _report(1, started, f"total={bound.total:.9f}")


def test_02_coverage():
    """Tent K=1 (L=4), N=1e5, delta=0.1, optimized M: coverage >= 0.90."""
    started = time.time()
    tent = tent_density(1)
    delta = 0.1
    M, _ = optimize_M(1, 4.0, 10**5, delta)
    covered = 0
    for t in range(100):
        pts = sample(tent, 10**5, split(20250809, t))
        report = estimate_entropy_certified(pts, 4.0, delta, M=M)
        covered += abs(report.estimate - TENT_H1) <= report.bound.total
    coverage = covered / 100
    assert coverage >= 0.90
    _report(2, started, f"coverage={coverage:.2f} over 100 trials (M={M})")


def test_03_consistency_trend():
    """Median |error| non-increasing in N and below the bound at every N."""
    started = time.time()
    tent = tent_density(1)
    medians = []
    for N in (10**3, 10**4, 10**5, 10**6):
        M, bound = optimize_M(1, 4.0, N, 0.1)
        errors = []
        for s in range(20):
            pts = sample(tent, N, split(7, N, s))
            report = estimate_entropy_certified(pts, 4.0, 0.1, M=M)
            errors.append(abs(report.estimate - TENT_H1))
        med = float(np.median(errors))
        assert med <= bound.total
        assert max(errors) <= bound.total
        medians.append(med)
    assert all(b <= a for a, b in zip(medians, medians[1:]))
    _report(3, started, "medians " + " ".join(f"{m:.5f}" for m in medians))


def test_04_lemma_suite():
    """Supporting inequalities for tents K in {1,2}, M in {8,16,32}."""
    started = time.time()
    for K in (1, 2):
        tent = tent_density(K)
        L = tent.lipschitz_L
        tol = 1e-6 if K == 1 else 1e-5
        sup = check_sup_bound(tent)
        assert sup.sup_p <= sup.bound * (1 + 1e-9)
        if K == 1:
            # the 1-D tent attains the sup bound exactly at its apex
            assert abs(sup.sup_p - sup.bound) <= 1e-9
        h_tent = numeric_entropy(tent, tol)
        for M in (8, 16, 32):
            gap = check_density_gap(tent, M)
            assert gap <= L * K / (2.0 * M) + 1e-9
            companion = quantized_companion(tent, M)
            cont = check_entropy_continuity(
                h_tent, numeric_entropy(companion, tol), eps=L * K / (2.0 * M), A=sup.bound
            )
            assert cont.lhs <= cont.rhs + 2 * tol
    rng = generator(314)
    x = rng.random(10**6)
    shift = (rng.random(10**6) * 2.0 - 1.0) * alpha_const()
    y = np.maximum(x + shift, 0.0)
    lhs, rhs = check_xlogx_gap(x, y)
    assert np.all(lhs <= rhs + 1e-12)
    _report(4, started, "density gap, sup bound, continuity, x log x: all hold")


def test_05_discrete_entropy_lemma():
    """Exact enumeration of E[H_hat] against the bias bound log(1.4)."""
    started = time.time()
    pmf = [0.5, 0.3, 0.2]
    expected = expected_plugin_entropy_enum(pmf, 5)
    assert expected == pytest.approx(0.7869283994675863, abs=1e-12)
    bias = abs(exact_discrete_entropy(pmf) - expected)
    assert bias <= math.log(1.4)
    assert math.log(1.4) == pytest.approx(0.33647, abs=1e-5)
    coin = expected_plugin_entropy_enum([0.5, 0.5], 2)
    assert coin == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
    _report(5, started, f"bias={bias:.5f} <= log(1.4), E[H]=(1/2)log2 exact")


def test_06_prop1_demonstration():
    """Contamination mixture defeats the estimator in >= 90% of trials."""
    started = time.time()
    C, delta, N = 1.0, 0.1, 100
    assert delta / (2 * N) == 5e-4  # contamination rate of the construction
    report = prop1_demo(C=C, delta=delta, N=N, trials=500, seed=20250809)
    assert report.failure_fraction >= 0.9
    _report(
        6,
        started,
        f"failure_fraction={report.failure_fraction:.3f}, "
        f"truth={report.true_value:.3f}, b={report.calibrated_b:.3f}",
    )


def test_07_mi_demonstration():
    """MI estimate stays below b in >= 90% of trials while truth > b + C."""
    started = time.time()
    report = mi_adversary_demo(C=1.0, delta=0.1, N=100, trials=200, seed=20250809)
    assert report.below_threshold_fraction >= 0.9
    assert report.true_value >= report.calibrated_b + 1.0
    _report(
        7,
        started,
        f"below_b={report.below_threshold_fraction:.3f}, "
        f"true_mi={report.true_value:.3f} >= b+C={report.calibrated_b + 1.0:.3f}",
    )


def test_08_kl_closed_form():
    """D(a,k) matches piecewise-constant quadrature to 1e-8 and >= k - 1/e."""
    started = time.time()
    for a in (1.0, 2.0, 5.0):
        for k in (0.1, 1.0, 3.0):
            closed = kl_true_divergence(a, k)
            p, q = kl_step_pair(a, k)
            assert closed == pytest.approx(numeric_kl(p, q, tol=1e-12).value, abs=1e-8)
            assert closed >= k - math.exp(-1.0)
    _report(8, started, "9 grid points match quadrature and the lower bound")


def test_09_vanishing_bound():
    """M(N)=ceil(sqrt(N)): bound strictly decreasing, < 0.1 at N=1e7."""
    started = time.time()
    delta = 0.05
    totals = []
    for N in (10**3, 10**4, 10**5, 10**6, 10**7):
        M = math.ceil(math.sqrt(N))
        totals.append(total_bound(BoundParams(1, 1.0, M, N, delta)).total)
    assert all(b < a for a, b in zip(totals, totals[1:]))
    assert totals[-1] < 0.1
    _report(9, started, "totals " + " ".join(f"{t:.4f}" for t in totals))


def test_10_cli_determinism(tmp_path, capsys):
    """Repeated CLI runs with one config+seed emit byte-identical data."""
    started = time.time()
    cases = [
        ["estimate", "--density", "tent", "--k", "1", "--l", "4", "--n", "20000",
         "--delta", "0.1", "--seed", "7"],
        ["coverage", "--density", "tent", "--k", "1", "--l", "4", "--n", "5000",
         "--delta", "0.1", "--trials", "10", "--seed", "11"],
        ["prop1-demo", "--c", "1", "--delta", "0.1", "--n", "50", "--trials", "20",
         "--seed", "3"],
    ]
    for i, args in enumerate(cases):
        blobs = []
        for rep in ("x", "y"):
            out = tmp_path / f"case{i}_{rep}.csv"
            assert cli_main(args + ["--out", str(out)]) == 0
            capsys.readouterr()
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
    _report(10, started, f"{len(cases)} commands byte-identical across reruns")
