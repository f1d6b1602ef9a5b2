// Fixture: spawning through the sanctioned wrapper stays quiet, as do
// member calls that merely share a syscall's name, and mentions of
// fork()/execvp()/system() inside comments or string literals.
#include <string>
#include <vector>

#include "core/state_machine.h"  // declares StateMachine::fork / ::system

struct ChildProcess {
  static int Spawn(const std::vector<std::string>& argv);
};

int SpawnWorkerTheRightWay(StateMachine& machine, StateMachine* engine) {
  int child = ChildProcess::Spawn({"worker", "--shard=quarter:0"});
  int branch = machine.fork(2);
  int state = engine->system(branch);
  std::string note = "workers never call fork() or popen() directly";
  return child + branch + state + (note.empty() ? 0 : 1);
}
