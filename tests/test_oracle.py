"""Quadrature, exact enumeration, and the supporting-inequality checks."""
import math

import numpy as np
import pytest

from entrobound import oracle
from entrobound import (
    QuadratureError,
    alpha_const,
    check_density_gap,
    check_entropy_continuity,
    check_sup_bound,
    check_xlogx_gap,
    exact_discrete_entropy,
    expected_plugin_entropy_enum,
    integrate_box,
    kl_step_pair,
    kl_true_divergence,
    low_entropy_alt,
    numeric_entropy,
    numeric_kl,
    quantized_companion,
    tent_density,
    trapezoid_entropy,
    uniform_density,
)
from entrobound.densities import DensityModel
from entrobound.rng import generator

TENT_H1 = 0.5 - math.log(2.0)


def _constant_model(level: float, lipschitz: float):
    """Inline helper: constant density `level` on [0, 1/level]."""
    width = 1.0 / level

    def pdf(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        inside = np.all((pts >= 0.0) & (pts <= width), axis=1)
        return np.where(inside, level, 0.0)

    return DensityModel(
        K=1,
        support=np.array([[0.0, width]]),
        pdf=pdf,
        sampler=lambda rng, n: rng.random((n, 1)) * width,
        lipschitz_L=lipschitz,
        analytic_entropy=-math.log(level),
        name=f"const-{level:g}",
    )


class TestNumericEntropy:
    def test_uniform_step_model(self):
        result = numeric_entropy(uniform_density(1), tol=1e-9)
        assert result.value == pytest.approx(0.0, abs=1e-9)

    def test_tent(self):
        result = numeric_entropy(tent_density(1), tol=1e-5)
        assert result.value == pytest.approx(TENT_H1, abs=1e-5)
        assert result.value == pytest.approx(-0.19315, abs=1e-4)
        assert result.est_error >= 0.0

    def test_scaled_tent(self):
        model = low_entropy_alt(1, TENT_H1 + math.log(0.5))
        result = numeric_entropy(model, tol=1e-5)
        assert result.value == pytest.approx(TENT_H1 - math.log(2.0), abs=1e-5)
        assert result.value == pytest.approx(-0.88629, abs=1e-4)

    def test_level_cap_raises(self):
        rough = uniform_density(1)
        with pytest.raises(QuadratureError):
            integrate_box(rough.pdf, [[0.0, 1.0]], tol=1e-30, max_levels=3)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            numeric_entropy(tent_density(1), tol=0.0)


class TestQuantizedCompanion:
    def test_single_cell_is_uniform(self):
        companion = quantized_companion(tent_density(1), 1)
        pts = generator(0).random((50, 1))
        assert np.allclose(companion.pdf(pts), 1.0, atol=1e-12)

    def test_tent_halves(self):
        companion = quantized_companion(tent_density(1), 2)
        assert companion.pdf(np.array([[0.25]]))[0] == pytest.approx(1.0, abs=1e-12)
        assert companion.pdf(np.array([[0.75]]))[0] == pytest.approx(1.0, abs=1e-12)

    def test_integrates_to_one(self):
        # dyadic cell edges integrate exactly; non-dyadic (M=3) edges leave
        # an O(h) midpoint residual, so that case gets a realistic tolerance
        companion = quantized_companion(tent_density(1), 8)
        total = integrate_box(companion.pdf, companion.support, tol=1e-10).value
        assert total == pytest.approx(1.0, abs=1e-9)
        companion3 = quantized_companion(tent_density(1), 3)
        total3 = integrate_box(companion3.pdf, companion3.support, tol=1e-6).value
        assert total3 == pytest.approx(1.0, abs=1e-5)

    def test_exact_masses_M8(self):
        """Tent cell masses at M=8 are (1,3,5,7,7,5,3,1)/32."""
        companion = quantized_companion(tent_density(1), 8)
        centers = ((np.arange(8) + 0.5) / 8).reshape(-1, 1)
        masses = companion.pdf(centers) / 8
        assert np.allclose(masses, np.array([1, 3, 5, 7, 7, 5, 3, 1]) / 32, atol=1e-12)

    @pytest.mark.parametrize("K,M", [(1, 8), (1, 16), (1, 32), (2, 8)])
    def test_discrete_continuous_identity(self, K, M):
        """H(cell pmf) = h(companion) + K log M within quadrature tolerance."""
        tent = tent_density(K)
        companion = quantized_companion(tent, M)
        centers = (np.arange(M) + 0.5) / M
        mesh = np.meshgrid(*([centers] * K), indexing="ij")
        grid = np.column_stack([ax.ravel() for ax in mesh])
        pmf = companion.pdf(grid) / float(M**K)
        tol = 1e-6
        h_cont = numeric_entropy(companion, tol)
        assert exact_discrete_entropy(pmf) == pytest.approx(
            h_cont.value + K * math.log(M), abs=4 * tol
        )

    def test_support_guard(self):
        p, _ = kl_step_pair(1.0, 1.0)  # supported on [-1, 1)
        with pytest.raises(ValueError):
            quantized_companion(p, 4)


@pytest.mark.parametrize("lengths", [(5,), (3, 4), (2, 3, 5)])
def test_grid_chunks_are_the_row_major_grid(lengths, monkeypatch):
    """Chunks of 7 points concatenate to the meshgrid, across chunk edges."""
    monkeypatch.setattr(oracle, "_CHUNK", 7)
    axes = [np.linspace(0.0, 1.0, n) + k for k, n in enumerate(lengths)]
    chunks = list(oracle._grid_chunks(axes))
    assert [c.shape[0] for c in chunks[:-1]] == [7] * (len(chunks) - 1)
    mesh = np.meshgrid(*axes, indexing="ij")
    expected = np.column_stack([ax.ravel() for ax in mesh])
    assert np.array_equal(np.concatenate(chunks), expected)


class TestDensityGap:
    def test_tent_M16_within_bound(self):
        gap = check_density_gap(tent_density(1), 16)
        assert gap <= 4.0 * 1 / (2 * 16)
        assert gap > 0.0

    def test_gap_halves_when_M_doubles(self):
        gaps = {M: check_density_gap(tent_density(1), M) for M in (8, 16, 32)}
        assert 0.4 <= gaps[16] / gaps[8] <= 0.6
        assert 0.4 <= gaps[32] / gaps[16] <= 0.6

    def test_constant_density_zero_gap(self):
        gap = check_density_gap(_constant_model(1.0, lipschitz=0.5), 4)
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_requires_lipschitz(self):
        with pytest.raises(ValueError):
            check_density_gap(uniform_density(1), 4)

    def test_three_dimensional_coarse_grid(self):
        tent = tent_density(3)  # L = 16
        gap = check_density_gap(tent, 8)
        assert 0.0 < gap <= 16.0 * 3 / (2 * 8)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            check_density_gap(tent_density(4), 4)


class TestSupBound:
    def test_tent_equality(self):
        result = check_sup_bound(tent_density(1))
        assert result.bound == pytest.approx(2.0, abs=1e-12)
        assert abs(result.sup_p - result.bound) <= 1e-9

    def test_unit_lipschitz_bound(self):
        result = check_sup_bound(_constant_model(1.0, lipschitz=1.0))
        assert result.bound == pytest.approx(1.0, abs=1e-12)
        assert result.sup_p <= result.bound * (1 + 1e-9)

    def test_scaled_tent_equality(self):
        model = low_entropy_alt(1, TENT_H1 + math.log(0.5))  # s = 1/2, L = 16
        result = check_sup_bound(model)
        assert result.bound == pytest.approx(4.0, abs=1e-12)
        assert abs(result.sup_p - result.bound) <= 1e-9

    def test_k2_bound_holds_without_equality(self):
        result = check_sup_bound(tent_density(2))
        assert result.bound == pytest.approx(4.578856970213327, abs=1e-12)
        assert result.sup_p == pytest.approx(4.0, abs=1e-12)


class TestXlogxGap:
    def test_equal_arguments(self):
        lhs, rhs = check_xlogx_gap(0.3, 0.3)
        assert lhs == 0.0 and rhs == 0.0

    def test_tight_at_zero(self):
        lhs, rhs = check_xlogx_gap(0.0, 0.1)
        assert lhs == pytest.approx(0.2302585092994046, abs=1e-12)
        assert lhs == pytest.approx(rhs, abs=1e-15)

    def test_boundary_a_equals_alpha(self):
        lhs, rhs = check_xlogx_gap(0.0, alpha_const())
        assert lhs <= rhs + 1e-15

    def test_million_random_pairs(self):
        rng = generator(314)
        x = rng.random(10**6)
        shift = (rng.random(10**6) * 2.0 - 1.0) * alpha_const()
        y = np.maximum(x + shift, 0.0)
        lhs, rhs = check_xlogx_gap(x, y)
        assert np.all(lhs <= rhs + 1e-12)

    def test_precondition_violations(self):
        with pytest.raises(ValueError):
            check_xlogx_gap(0.0, 0.25)  # a > alpha
        with pytest.raises(ValueError):
            check_xlogx_gap(1.2, 1.15)
        with pytest.raises(ValueError):
            check_xlogx_gap(0.1, -0.01)


class TestEntropyContinuity:
    def test_identical_densities(self):
        tent = tent_density(1)
        result = check_entropy_continuity(tent, tent, eps=0.1, A=2.0)
        assert result.lhs == 0.0
        assert result.alpha_ok

    def test_tent_vs_companion_M32(self):
        tent = tent_density(1)
        companion = quantized_companion(tent, 32)
        eps = 4.0 / 64.0
        result = check_entropy_continuity(tent, companion, eps=eps, A=2.0, tol=1e-6)
        assert result.rhs == pytest.approx(0.2166084939249829, abs=1e-12)
        assert result.lhs <= result.rhs + 2e-6
        assert result.alpha_ok

    def test_rhs_monotone_in_eps(self):
        A = 2.0
        eps_grid = np.linspace(0.01, A / math.e * 0.999, 30)
        values = [e * math.log(A / e) for e in eps_grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        tent = tent_density(1)
        with pytest.raises(ValueError):
            check_entropy_continuity(tent, tent, eps=0.0, A=2.0)


class TestExactDiscreteEntropy:
    def test_values(self):
        assert exact_discrete_entropy([1.0]) == 0.0
        assert exact_discrete_entropy([0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-15)
        assert exact_discrete_entropy([0.5, 0.3, 0.2]) == pytest.approx(
            1.0296530140645735, abs=1e-12
        )

    def test_zero_entries_ignored(self):
        assert exact_discrete_entropy([0.5, 0.0, 0.5]) == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_normalization_error(self):
        with pytest.raises(ValueError):
            exact_discrete_entropy([0.5, 0.4])
        with pytest.raises(ValueError):
            exact_discrete_entropy([1.2, -0.2])


class TestExpectedPluginEntropyEnum:
    def test_single_draw(self):
        assert expected_plugin_entropy_enum([0.5, 0.3, 0.2], 1) == 0.0

    def test_fair_coin_two_draws(self):
        value = expected_plugin_entropy_enum([0.5, 0.5], 2)
        assert value == pytest.approx(0.5 * math.log(2.0), abs=1e-12)

    def test_three_letter_N5(self):
        pmf = [0.5, 0.3, 0.2]
        value = expected_plugin_entropy_enum(pmf, 5)
        assert value == pytest.approx(0.7869283994675863, abs=1e-12)
        bias = abs(exact_discrete_entropy(pmf) - value)
        assert bias <= math.log(1.0 + 2.0 / 5.0)

    def test_guards(self):
        with pytest.raises(ValueError):
            expected_plugin_entropy_enum([1 / 6.0] * 6, 2)
        with pytest.raises(ValueError):
            expected_plugin_entropy_enum([0.5, 0.5], 11)


class TestTrapezoidEntropy:
    def test_narrow_limit(self):
        assert abs(trapezoid_entropy(1e-6)) < 1e-3

    def test_triangle(self):
        assert trapezoid_entropy(1.0) == pytest.approx(0.5, abs=1e-8)

    def test_monotone_in_width(self):
        values = [trapezoid_entropy(c) for c in np.arange(0.1, 1.01, 0.1)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_closed_form_c_over_two(self):
        for c in (0.05, 0.2, 0.77):
            assert trapezoid_entropy(c) == pytest.approx(c / 2.0, abs=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            trapezoid_entropy(0.0)
        with pytest.raises(ValueError):
            trapezoid_entropy(1.5)


class TestKlTrueDivergence:
    def test_zero_gap(self):
        assert kl_true_divergence(2.0, 0.0) == 0.0

    def test_frozen_value(self):
        value = kl_true_divergence(2.0, 1.0)
        assert value == pytest.approx(0.8743384323439908, abs=1e-12)
        assert value >= 1.0 - math.exp(-1.0)

    def test_lower_bound_on_grid(self):
        for a in (1.0, 2.0, 5.0):
            for k in (0.1, 1.0, 3.0):
                assert kl_true_divergence(a, k) >= k - math.exp(-1.0)

    def test_matches_quadrature_on_grid(self):
        for a in (1.0, 2.0, 5.0):
            for k in (0.1, 1.0, 3.0):
                p, q = kl_step_pair(a, k)
                quad = numeric_kl(p, q, tol=1e-12)
                assert kl_true_divergence(a, k) == pytest.approx(quad.value, abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kl_true_divergence(0.0, 1.0)
        with pytest.raises(ValueError):
            kl_true_divergence(1.0, -0.5)


class TestLipschitzDifferenceIntegral:
    @pytest.mark.parametrize("K", [1, 2])
    def test_cell_integral_bound(self, K):
        """integral over a cell of |p - p(t0)| <= eps^(K+1) * L * K / 2."""
        tent = tent_density(K)
        L = tent.lipschitz_L
        M = 8
        eps = 1.0 / M
        rng = generator(17)
        for _ in range(5):
            corner = rng.integers(0, M, size=K) / M
            cell = np.column_stack([corner, corner + eps])
            for t0 in (corner + eps / 2.0, corner):
                p0 = float(tent.pdf(t0.reshape(1, -1))[0])
                value = integrate_box(
                    lambda pts: np.abs(tent.pdf(pts) - p0), cell, tol=1e-9
                ).value
                assert value <= eps ** (K + 1) * L * K / 2.0 + 1e-9
