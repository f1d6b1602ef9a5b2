// Fixture: member calls that merely share a syscall's name stay quiet, as
// do mentions of fork()/execvp()/system() inside comments or string
// literals.
#include <string>

#include "core/state_machine.h"  // declares StateMachine::fork / ::system

int BranchTheRightWay(StateMachine& machine, StateMachine* engine) {
  int branch = machine.fork(2);
  int state = engine->system(branch);
  std::string note = "the pipeline never calls fork() or popen()";
  return branch + state + (note.empty() ? 0 : 1);
}
