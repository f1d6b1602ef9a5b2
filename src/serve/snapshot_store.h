#ifndef MARAS_SERVE_SNAPSHOT_STORE_H_
#define MARAS_SERVE_SNAPSHOT_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serve/snapshot_reader.h"
#include "serve/snapshot_writer.h"
#include "util/mutex.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"

namespace maras::serve {

// A directory of immutable snapshot generations with crash-safe,
// pointer-swap publication and last-good fallback.
//
// On-disk layout:
//   <dir>/snapshot-000001.msnp     generation files, never rewritten
//   <dir>/snapshot-000002.msnp
//   <dir>/CURRENT                  name of the committed generation
//
// Publish writes the next generation file, then swings CURRENT to it; both
// writes go through the checksummed tmp+fsync+rename helper, so every
// possible crash point leaves the directory in one of three states — old
// generation committed, new file present but uncommitted, or new
// generation committed — and never a torn file under a committed name.
// Once the new generation is served, Publish deletes every generation file
// older than the two newest (the served one and one last-good fallback);
// quarantined files stay.
//
// Resolution (Acquire/Refresh) tries the CURRENT target first, then every
// generation newest-first. A candidate that fails validation is diagnosed,
// quarantined (renamed to <file>.quarantined so it can never be
// retried but stays available for forensics), and the scan falls through
// to the previous generation: readers keep serving the last good snapshot
// as long as any good generation exists.
//
// Readers hold the snapshot through shared_ptr refcounting — a Publish or
// Refresh swaps the store's pointer but in-flight readers keep their
// generation mapped until they drop it.
class SnapshotStore {
 public:
  struct Options {
    std::string dir;
    // Deterministic fault injection: called at each named publish stage
    // ("publish.pre-snapshot-write", "publish.post-snapshot-write",
    // "publish.pre-current-write", "publish.post-current-write"). Returning
    // false makes Publish stop dead — no cleanup, no rollback — exactly
    // like a process kill at that instant, and surfaces Cancelled.
    std::function<bool(std::string_view)> stage_hook;
  };

  explicit SnapshotStore(Options options) : options_(std::move(options)) {}

  // Encodes `inputs` as the next generation, commits it via CURRENT, and
  // swaps it in for subsequent Acquire calls. Publishes are serialized by
  // publish_mu_ — concurrent callers queue up rather than racing generation
  // selection (both picking the same number and overwriting each other's
  // file, one publish silently vanishing).
  maras::Status Publish(const SnapshotInputs& inputs) EXCLUDES(publish_mu_);

  // The committed snapshot, resolving (with fallback) on first use. The
  // returned snapshot stays valid for as long as the caller holds the
  // pointer, across any number of later publishes.
  maras::StatusOr<std::shared_ptr<const SignalSnapshot>> Acquire();

  // Re-resolves from disk and swaps the served snapshot. NotFound when the
  // directory holds no valid generation at all.
  maras::Status Refresh();

  // Generation currently served (0 when none has been resolved yet).
  uint64_t current_generation() const;

  // Human-readable log of every rejected generation and quarantine action,
  // oldest first.
  std::vector<std::string> diagnostics() const;

  static std::string GenerationFileName(uint64_t generation);

 private:
  struct Resolved {
    std::shared_ptr<const SignalSnapshot> snapshot;
    uint64_t generation = 0;
  };

  // Scans dir for generation files, ascending. IO errors are IOError.
  maras::StatusOr<std::vector<uint64_t>> ListGenerations() const;

  // Tries CURRENT, then generations newest-first; diagnoses and optionally
  // quarantines every invalid candidate it passes over.
  maras::StatusOr<Resolved> Resolve();

  void AddDiagnostic(std::string message);
  void Quarantine(const std::string& file_name);
  // Deletes the generation files older than the two newest; a failure is a
  // diagnostic, since the publish itself has succeeded.
  void DeleteSupersededGenerations() REQUIRES(publish_mu_);

  const Options options_;

  // Concurrency capability model: mutex_ guards the served state — the
  // current snapshot pointer, its generation number, and the diagnostics
  // log. It is a reader/writer capability because the serve path is
  // read-mostly: Acquire/current_generation/diagnostics take it shared, so
  // queries never serialize behind each other; only a swap (Refresh) or a
  // diagnostic append takes it exclusively. publish_mu_ is a separate
  // whole-publish capability (see Publish) held across generation
  // selection, the two file writes, and the final Refresh; it guards no
  // field and never nests inside mutex_ — lock order is always
  // publish_mu_ -> mutex_.
  mutable SharedMutex mutex_;
  Mutex publish_mu_ ACQUIRED_BEFORE(mutex_);
  std::shared_ptr<const SignalSnapshot> current_ GUARDED_BY(mutex_);
  uint64_t generation_ GUARDED_BY(mutex_) = 0;
  std::vector<std::string> diagnostics_ GUARDED_BY(mutex_);
};

}  // namespace maras::serve

#endif  // MARAS_SERVE_SNAPSHOT_STORE_H_
