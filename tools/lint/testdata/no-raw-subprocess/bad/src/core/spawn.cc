// Fixture: raw process-control syscalls must fire.
#include <cstdio>
#include <unistd.h>

int SpawnWorkerTheWrongWay(const char* path) {
  pid_t pid = fork();  // violation: raw fork
  if (pid == 0) {
    execvp(path, nullptr);  // violation: raw exec
  }
  return system("rm -rf /tmp/scratch");  // violation: raw system
}

FILE* OpenPipeline(const char* cmd) {
  return popen(cmd, "r");  // violation: raw popen
}
