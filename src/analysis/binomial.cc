#include "src/analysis/binomial.h"

#include <math.h>

#include <cmath>

namespace prefixfilter::analysis {

namespace {

// std::lgamma stores the sign of Γ(x) in the global `signgam`, so filters
// constructed on two threads at once (concurrent snapshot restores) race on
// it.  lgamma_r returns the sign through a local instead.
double LogGamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

}  // namespace

double LogBinomialCoefficient(double n, double k) {
  if (k < 0 || k > n) return -INFINITY;
  return LogGamma(n + 1) - LogGamma(k + 1) - LogGamma(n - k + 1);
}

double LogBinomialPmf(double n, double p, double k) {
  if (k < 0 || k > n) return -INFINITY;
  if (p <= 0) return k == 0 ? 0.0 : -INFINITY;
  if (p >= 1) return k == n ? 0.0 : -INFINITY;
  return LogBinomialCoefficient(n, k) + k * std::log(p) +
         (n - k) * std::log1p(-p);
}

double BinomialPmf(double n, double p, double k) {
  return std::exp(LogBinomialPmf(n, p, k));
}

double BinomialCdf(double n, double p, double k) {
  if (k < 0) return 0.0;
  if (k >= n) return 1.0;
  // All callers have k = O(bin capacity) <= ~256, so direct summation with
  // incremental ratios is both exact and fast.
  double pmf = BinomialPmf(n, p, 0);
  double cdf = pmf;
  const double odds = p / (1 - p);
  for (double j = 0; j < k; ++j) {
    pmf *= (n - j) / (j + 1) * odds;
    cdf += pmf;
  }
  return cdf < 1.0 ? cdf : 1.0;
}

double ExpectedOverflowPerBin(double n, double p, double k) {
  // E[max(B-k,0)] = sum_{j>k} (j-k) * Pr[B=j].  The pmf past the mean decays
  // geometrically, so we sum upward from j = k+1 until the running term is
  // negligible.  Start from the pmf at k+1 in log space to avoid underflow
  // issues at small expectations.
  double pmf = BinomialPmf(n, p, k + 1);
  if (pmf == 0.0) return 0.0;
  const double odds = p / (1 - p);
  double sum = 0.0;
  for (double j = k + 1; j <= n; ++j) {
    const double term = (j - k) * pmf;
    sum += term;
    if (term < sum * 1e-15 && j > n * p + 10) break;
    pmf *= (n - j) / (j + 1) * odds;
  }
  return sum;
}

double ExpectedSpareSize(uint64_t n, uint64_t m, uint32_t k) {
  const double p = 1.0 / static_cast<double>(m);
  return static_cast<double>(m) *
         ExpectedOverflowPerBin(static_cast<double>(n), p,
                                static_cast<double>(k));
}

double ExpectedSpareFraction(uint64_t n, uint64_t m, uint32_t k) {
  return ExpectedSpareSize(n, m, k) / static_cast<double>(n);
}

double SpareFractionApproximation(uint32_t k) {
  return 1.0 / std::sqrt(2.0 * M_PI * static_cast<double>(k));
}

double NegativeQuerySpareProbability(uint64_t n, uint64_t m, uint32_t k) {
  const double p = 1.0 / static_cast<double>(m);
  return BinomialPmf(static_cast<double>(n), p, static_cast<double>(k) + 1);
}

StirlingBounds StirlingPmfBounds(double n, double k) {
  // Proposition 9 with p = k/n:
  //   exp(t0)/sqrt(2*pi*k*(1-p)) < Pr[B = k] < exp(t1)/sqrt(2*pi*k*(1-p))
  const double p = k / n;
  const double base = 1.0 / std::sqrt(2.0 * M_PI * k * (1.0 - p));
  const double t0 =
      1.0 / (12.0 * n + 1.0) - (1.0 / (12.0 * k) + 1.0 / (12.0 * (n - k)));
  const double t1 = 1.0 / (12.0 * n) -
                    (1.0 / (12.0 * k + 1.0) + 1.0 / (12.0 * (n - k) + 1.0));
  return {base * std::exp(t0), base * std::exp(t1)};
}

}  // namespace prefixfilter::analysis
