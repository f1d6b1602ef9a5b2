// A shipped program that includes the fixture's headers, so this tree is
// clean under every rule, reachability included.
#include "util/mutex.h"
#include "util/work_queue.h"

int main() { return 0; }
