#include "lib/orphan.h"

#include "lib/orphan_detail.h"

namespace lib {
int Orphan() { return kOrphanDetail; }
}  // namespace lib
