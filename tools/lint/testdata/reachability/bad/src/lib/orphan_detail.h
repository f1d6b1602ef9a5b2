#ifndef MARAS_LIB_ORPHAN_DETAIL_H_
#define MARAS_LIB_ORPHAN_DETAIL_H_

// Fires: only the unreached orphan.cc includes it.
namespace lib {
constexpr int kOrphanDetail = 3;
}  // namespace lib

#endif  // MARAS_LIB_ORPHAN_DETAIL_H_
