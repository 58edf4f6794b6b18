"""``compare`` reuses what the max-entropy solve has built, and the solver
computes its coefficients once per call.

* The ratio law is built only where it differs from the max-entropy law;
  where they coincide the max-entropy ``Dist`` stands in for it, and the
  report still equals the standalone statistics of ``ratio_approx``.
* The max-entropy law's mean is read once, by the solver's 1e-9 check.
* ``_solve_base`` hoists the coefficients j - mu out of its passes with
  the same values and operation order, so its root is bit-identical to
  the loop that recomputed them on every pass.
"""

import sys
from fractions import Fraction

import pytest
from test_one_pass_report import SWEEP, entropy_oracle, kl_oracle, mean_oracle, tv_oracle

from discrete_boltzmann import approx, compare, max_entropy_dist, ratio_approx
from discrete_boltzmann.approx import _solve_base


# ---------------------------------------------------------------------------
# the ratio candidate
# ---------------------------------------------------------------------------

@pytest.fixture
def ratio_builds(monkeypatch):
    """Record each (E, mu) that ``compare`` builds the ratio law for."""
    calls = []

    def counted(e, mu):
        calls.append((e, mu))
        return ratio_approx(e, mu)

    monkeypatch.setattr(approx, "ratio_approx", counted)
    return calls


class TestRatioReuse:
    @pytest.mark.parametrize("e, k", SWEEP)
    def test_ratio_law_is_built_only_where_it_differs(self, ratio_builds, e, k):
        report = compare(e, k)
        mu = Fraction(e, k)
        ratio, (maxent, _) = ratio_approx(e, mu), max_entropy_dist(e, mu)
        candidate = report.candidate("ratio")
        if ratio == maxent:
            assert ratio_builds == []
            assert candidate.dist is report.candidate("max-entropy").dist
        else:
            assert ratio_builds == [(e, mu)]
        assert candidate.dist == ratio
        assert candidate.dist.numerators() == ratio.numerators()
        assert candidate.mean == mean_oracle(ratio)
        assert candidate.entropy == entropy_oracle(ratio)
        assert candidate.kl_from_reference == kl_oracle(report.reference, ratio)
        assert candidate.total_variation == tv_oracle(report.reference, ratio)

    def test_the_sweep_builds_and_skips_the_ratio_law(self, ratio_builds):
        built = skipped = 0
        for e, k in SWEEP[:-2]:
            ratio_builds.clear()
            compare(e, k)
            built += len(ratio_builds)
            skipped += not ratio_builds
        assert built and skipped

    def test_a_mean_above_half_is_never_taken_for_the_ratio_law(self):
        # the max-entropy base is then above 1, the ratio law's below 1
        maxent, _ = max_entropy_dist(30, 20)
        assert maxent(1) * 21 != maxent(0) * 20
        assert maxent != ratio_approx(30, 20)


class TestMaxEntropyMean:
    @pytest.mark.parametrize("e, k", [(10, 3), (40, 2), (50, 20), (153, 137), (200, 7)])
    def test_compare_reads_the_solved_mean_once(self, monkeypatch, e, k):
        maxent, _ = max_entropy_dist(e, Fraction(e, k))
        reads = []

        def counted(omega):
            reads.append(omega == maxent)
            return mean_oracle(omega)

        monkeypatch.setattr(approx, "mean", counted)
        report = compare(e, k)
        assert reads.count(True) == 1
        assert report.candidate("max-entropy").mean == mean_oracle(maxent)

    @pytest.mark.parametrize("e, mu", [(10, 0), (10, 10), (10, 5), (9, Fraction(9, 2)),
                                       (10, Fraction(7, 2)), (200, 3), (200, 190)])
    def test_private_solve_returns_the_exact_mean_of_its_law(self, e, mu):
        dist, s, m = approx._max_entropy(e, mu)
        assert (dist, s) == max_entropy_dist(e, mu)
        assert m == mean_oracle(dist)
        assert type(m) is Fraction

    def test_solved_mean_check_message(self, monkeypatch):
        monkeypatch.setattr(approx, "_geometric", lambda e, p, q: approx.uniform(range(e + 1)))
        with pytest.raises(ArithmeticError, match=r"^solved mean misses the target by "):
            max_entropy_dist(10, 2)


# ---------------------------------------------------------------------------
# the solver's coefficients
# ---------------------------------------------------------------------------

def solve_base_per_pass(e, mu):
    """The solver as it computed j - mu inside every Horner pass."""
    lo, hi, x = 0.0, 1.0, mu / (mu + 1.0)
    while True:
        fx = dfx = 0.0
        for j in range(e, -1, -1):
            dfx = dfx * x + fx
            fx = fx * x + (j - mu)
        if fx == 0:
            return x
        if fx < 0:
            lo = x
        else:
            hi = x
        newton = x - fx / dfx if dfx else x
        step = newton if lo < newton < hi else 0.5 * (lo + hi)
        if abs(step - x) <= 4 * sys.float_info.epsilon * step:
            return step
        x = step


def half_step_means(e, stride):
    """Means mu = t/2 below E/2: both ends of the grid and every ``stride``-th point."""
    return sorted({1, 2, 3, e - 3, e - 2, e - 1} | set(range(1, e, stride)))


class TestSolverCoefficients:
    @pytest.mark.parametrize("e_lo", range(10, 201, 20))
    def test_root_equals_the_per_pass_loop_on_the_approx_ranges(self, e_lo):
        for e in range(e_lo, min(e_lo + 20, 201)):
            for t in half_step_means(e, 13):
                assert _solve_base(e, t / 2) == solve_base_per_pass(e, t / 2), (e, t / 2)

    def test_root_equals_the_per_pass_loop_at_e_2000(self):
        for t in half_step_means(2000, 97):
            assert _solve_base(2000, t / 2) == solve_base_per_pass(2000, t / 2), t / 2
