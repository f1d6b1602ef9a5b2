// Fixture: no file is exempt — raw process-control syscalls in a util
// wrapper fire too.
#include <unistd.h>

int SpawnInsideAWrapper(const char* path) {
  pid_t pid = fork();  // violation: raw fork
  if (pid == 0) {
    execvp(path, nullptr);  // violation: raw exec
  }
  return static_cast<int>(pid);
}
