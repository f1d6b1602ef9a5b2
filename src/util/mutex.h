#ifndef MARAS_UTIL_MUTEX_H_
#define MARAS_UTIL_MUTEX_H_

#include <mutex>
#include <shared_mutex>

#include "util/thread_annotations.h"

namespace maras {

// ---------------------------------------------------------------------------
// Capability-annotated lock wrappers. Every lock-bearing subsystem uses
// these instead of the raw std types so that clang's thread-safety analysis
// (util/thread_annotations.h) can prove lock discipline at compile time:
// a field declared GUARDED_BY(mu_) is only readable/writable while mu_ is
// held, and the `clang-thread-safety` preset turns a violation into a build
// break. The wrappers are zero-cost forwarding shims — the std primitives
// underneath are unchanged, so runtime behavior (and TSan's view of it) is
// byte-for-byte what the raw types gave.
//
// maras-lint's `mutex-annotations` rule closes the loop from the other
// side: a raw std::mutex/std::shared_mutex member outside src/util/ is a
// lint error, as is any mutex member no annotation ever names — so a lock
// cannot silently exist outside the capability model.
// ---------------------------------------------------------------------------

// Exclusive lock. Prefer the RAII MutexLock over manual Lock/Unlock pairs;
// the manual surface exists for the rare staged-handoff pattern and stays
// fully annotated so misuse is still a compile error under clang.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

// Reader/writer lock. Writers use Lock/Unlock (exclusive), readers
// LockShared/UnlockShared; GUARDED_BY fields under a SharedMutex are
// readable with the shared capability and writable only with the exclusive
// one — the analysis distinguishes the two.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  void LockShared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() RELEASE_SHARED() { mu_.unlock_shared(); }
  bool TryLockShared() TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }

 private:
  std::shared_mutex mu_;
};

// RAII exclusive hold on a Mutex for the enclosing scope.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

// RAII exclusive (writer) hold on a SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

// RAII shared (reader) hold on a SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->LockShared();
  }
  ~ReaderMutexLock() RELEASE() { mu_->UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

}  // namespace maras

#endif  // MARAS_UTIL_MUTEX_H_
