#ifndef MARAS_MINING_MEASURES_H_
#define MARAS_MINING_MEASURES_H_

#include <cstddef>

namespace maras::mining {

// Interestingness measures exactly as defined in the paper's Chapter 2.
//
// The paper defines support as the absolute co-occurrence count |A ∪ B|
// (Formula 2.1); confidence and lift are the standard ratios. `n` is the
// total number of transactions N.

// Confidence(A ⇒ B) = supp(A ∪ B) / supp(A); 0 when supp(A) == 0.
double Confidence(size_t support_ab, size_t support_a);

// Lift(A ⇒ B) = supp(A ∪ B) · N / (supp(A) · supp(B)); 0 when degenerate.
double Lift(size_t support_ab, size_t support_a, size_t support_b, size_t n);

}  // namespace maras::mining

#endif  // MARAS_MINING_MEASURES_H_
