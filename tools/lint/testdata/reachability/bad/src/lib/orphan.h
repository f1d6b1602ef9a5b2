#ifndef MARAS_LIB_ORPHAN_H_
#define MARAS_LIB_ORPHAN_H_

// Fires: nothing includes it, so its paired orphan.cc is unreached too.
namespace lib {
int Orphan();
}  // namespace lib

#endif  // MARAS_LIB_ORPHAN_H_
