// A shipped program that includes the fixture's header, so this tree is
// clean under every rule, reachability included.
#include "serve/bounded_view.h"

int main() { return 0; }
