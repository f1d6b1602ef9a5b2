#include "core/disproportionality.h"

#include <algorithm>
#include <cmath>

namespace maras::core {

namespace {

double Capped(double v) {
  if (!std::isfinite(v)) return kDisproportionalityCap;
  return std::min(v, kDisproportionalityCap);
}

}  // namespace

ContingencyTable MakeContingencyTable(const mining::TransactionDatabase& db,
                                      const mining::Itemset& drugs,
                                      const mining::Itemset& adrs) {
  ContingencyTable t;
  const size_t n = db.size();
  const size_t with_drugs = db.Support(drugs);
  const size_t with_adrs = db.Support(adrs);
  t.a = db.Support(mining::Union(drugs, adrs));
  t.b = with_drugs - t.a;
  t.c = with_adrs - t.a;
  t.d = n - with_drugs - t.c;
  return t;
}

double Prr(const ContingencyTable& t) {
  if (t.a + t.b == 0 || t.c + t.d == 0 || t.c == 0) {
    // No exposed reports, no comparator reports, or zero background rate:
    // the ratio is undefined / infinite. Follow practice: 0 when no
    // exposure, cap when the background rate is zero but cases exist.
    if (t.a == 0) return 0.0;
    return t.c == 0 ? kDisproportionalityCap : 0.0;
  }
  double exposed_rate =
      static_cast<double>(t.a) / static_cast<double>(t.a + t.b);
  double background_rate =
      static_cast<double>(t.c) / static_cast<double>(t.c + t.d);
  if (background_rate == 0.0) return kDisproportionalityCap;
  return Capped(exposed_rate / background_rate);
}

double Ror(const ContingencyTable& t) {
  if (t.a == 0) return 0.0;
  if (t.b == 0 || t.c == 0) return kDisproportionalityCap;
  return Capped((static_cast<double>(t.a) * static_cast<double>(t.d)) /
                (static_cast<double>(t.b) * static_cast<double>(t.c)));
}

double ChiSquaredYates(const ContingencyTable& t) {
  const double n = static_cast<double>(t.n());
  if (n == 0.0) return 0.0;
  const double a = static_cast<double>(t.a);
  const double b = static_cast<double>(t.b);
  const double c = static_cast<double>(t.c);
  const double d = static_cast<double>(t.d);
  const double row1 = a + b, row2 = c + d;
  const double col1 = a + c, col2 = b + d;
  if (row1 == 0 || row2 == 0 || col1 == 0 || col2 == 0) return 0.0;
  double diff = std::abs(a * d - b * c) - n / 2.0;
  if (diff < 0.0) diff = 0.0;  // Yates correction cannot flip the sign
  return (n * diff * diff) / (row1 * row2 * col1 * col2);
}

double InformationComponent(const ContingencyTable& t) {
  const double n = static_cast<double>(t.n());
  if (n == 0.0) return 0.0;
  const double a = static_cast<double>(t.a);
  const double expected = (a + static_cast<double>(t.b)) *
                          (a + static_cast<double>(t.c)) / n;
  return std::log2((a + 0.5) / (expected + 0.5));
}

namespace {

RatioInterval IntervalAround(double estimate, double standard_error,
                             double z) {
  if (estimate <= 0.0 || !std::isfinite(standard_error) ||
      standard_error <= 0.0 || estimate >= kDisproportionalityCap) {
    return RatioInterval{0.0, kDisproportionalityCap};
  }
  double log_estimate = std::log(estimate);
  return RatioInterval{
      std::exp(log_estimate - z * standard_error),
      std::min(std::exp(log_estimate + z * standard_error),
               kDisproportionalityCap)};
}

}  // namespace

RatioInterval PrrInterval(const ContingencyTable& t, double z) {
  if (t.a == 0 || t.c == 0 || t.a + t.b == 0 || t.c + t.d == 0) {
    return RatioInterval{0.0, kDisproportionalityCap};
  }
  double se = std::sqrt(1.0 / static_cast<double>(t.a) -
                        1.0 / static_cast<double>(t.a + t.b) +
                        1.0 / static_cast<double>(t.c) -
                        1.0 / static_cast<double>(t.c + t.d));
  return IntervalAround(Prr(t), se, z);
}

DisproportionalityResult EvaluateDisproportionality(
    const mining::TransactionDatabase& db, const DrugAdrRule& rule) {
  DisproportionalityResult result;
  result.table = MakeContingencyTable(db, rule.drugs, rule.adrs);
  result.prr = Prr(result.table);
  result.ror = Ror(result.table);
  result.chi_squared = ChiSquaredYates(result.table);
  result.information_component = InformationComponent(result.table);
  return result;
}

}  // namespace maras::core
