#include "serve/snapshot_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <utility>

#include "util/delimited.h"
#include "util/status.h"

namespace maras::serve {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kCurrentFile = "CURRENT";

// Accepts "snapshot-<digits>.msnp" and nothing else; in particular a
// ".quarantined" suffix disqualifies a file from ever being a candidate
// again.
bool ParseGeneration(std::string_view name, uint64_t* generation) {
  constexpr std::string_view prefix = "snapshot-";
  constexpr std::string_view suffix = ".msnp";
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.substr(0, prefix.size()) != prefix) return false;
  if (name.substr(name.size() - suffix.size()) != suffix) return false;
  const std::string_view digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.size() > 19) return false;  // cannot overflow u64 below
  uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *generation = value;
  return true;
}

// False when the test hook asks to abort at `stage`.
bool RunHook(const std::function<bool(std::string_view)>& hook,
             std::string_view stage) {
  return !hook || hook(stage);
}

}  // namespace

std::string SnapshotStore::GenerationFileName(uint64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "snapshot-%06llu.msnp",
                static_cast<unsigned long long>(generation));
  return buf;
}

maras::StatusOr<std::vector<uint64_t>> SnapshotStore::ListGenerations() const {
  std::error_code ec;
  fs::directory_iterator it(options_.dir, ec);
  if (ec) {
    return maras::Status::IOError("cannot list snapshot directory " +
                                  options_.dir + ": " + ec.message());
  }
  std::vector<uint64_t> generations;
  for (const fs::directory_iterator end; it != end; it.increment(ec)) {
    if (ec) {
      return maras::Status::IOError("cannot list snapshot directory " +
                                    options_.dir + ": " + ec.message());
    }
    uint64_t generation = 0;
    if (ParseGeneration(it->path().filename().string(), &generation)) {
      generations.push_back(generation);
    }
  }
  std::sort(generations.begin(), generations.end());
  return generations;
}

void SnapshotStore::AddDiagnostic(std::string message) {
  WriterMutexLock lock(&mutex_);
  diagnostics_.push_back(std::move(message));
}

void SnapshotStore::Quarantine(const std::string& file_name) {
  std::error_code ec;
  fs::rename(fs::path(options_.dir) / file_name,
             fs::path(options_.dir) / (file_name + ".quarantined"), ec);
  if (ec) {
    AddDiagnostic("cannot quarantine " + file_name + ": " + ec.message());
  } else {
    AddDiagnostic("quarantined " + file_name);
  }
}

maras::StatusOr<SnapshotStore::Resolved> SnapshotStore::Resolve() {
  MARAS_ASSIGN_OR_RETURN(std::vector<uint64_t> generations, ListGenerations());

  // The CURRENT target is the committed generation and gets first shot;
  // the descending scan behind it is the fallback ladder.
  uint64_t current_generation = 0;
  bool have_current = false;
  maras::StatusOr<std::string> current = maras::ReadFileToString(
      options_.dir + "/" + std::string(kCurrentFile));
  if (current.ok()) {
    if (ParseGeneration(*current, &current_generation)) {
      have_current = true;
    } else {
      AddDiagnostic("CURRENT names an unparseable generation: '" + *current +
                    "'");
    }
  } else if (!current.status().IsNotFound()) {
    AddDiagnostic("cannot read CURRENT: " + current.status().ToString());
  }

  std::vector<uint64_t> order;
  order.reserve(generations.size() + 1);
  if (have_current) order.push_back(current_generation);
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    if (!have_current || *it != current_generation) order.push_back(*it);
  }

  for (uint64_t generation : order) {
    const std::string name = GenerationFileName(generation);
    maras::StatusOr<SignalSnapshot> snapshot =
        SignalSnapshot::OpenFile(options_.dir + "/" + name);
    if (snapshot.ok()) {
      Resolved resolved;
      resolved.snapshot = std::make_shared<const SignalSnapshot>(
          std::move(snapshot).value());
      resolved.generation = generation;
      return resolved;
    }
    AddDiagnostic("generation " + std::to_string(generation) +
                  " rejected: " + snapshot.status().ToString());
    // A dangling CURRENT (file vanished) has nothing to quarantine.
    if (!snapshot.status().IsNotFound()) {
      Quarantine(name);
    }
  }
  return maras::Status::NotFound("no valid snapshot generation in " +
                                 options_.dir);
}

maras::Status SnapshotStore::Refresh() {
  // Resolution does file IO and takes the lock only to log/swap, so readers
  // calling Acquire are never blocked behind validation of a new file.
  MARAS_ASSIGN_OR_RETURN(Resolved resolved, Resolve());
  WriterMutexLock lock(&mutex_);
  current_ = std::move(resolved.snapshot);
  generation_ = resolved.generation;
  return maras::Status::OK();
}

maras::StatusOr<std::shared_ptr<const SignalSnapshot>>
SnapshotStore::Acquire() {
  {
    ReaderMutexLock lock(&mutex_);
    if (current_ != nullptr) return current_;
  }
  MARAS_RETURN_IF_ERROR(Refresh());
  ReaderMutexLock lock(&mutex_);
  return current_;
}

uint64_t SnapshotStore::current_generation() const {
  ReaderMutexLock lock(&mutex_);
  return generation_;
}

std::vector<std::string> SnapshotStore::diagnostics() const {
  ReaderMutexLock lock(&mutex_);
  return diagnostics_;
}

maras::Status SnapshotStore::Publish(const SnapshotInputs& inputs) {
  // One publisher at a time, held across generation selection, both file
  // writes, and the final Refresh. Without this, two concurrent publishers
  // can read the same ListGenerations result, pick the same next number,
  // and the second AtomicWrite silently replaces the first publisher's
  // snapshot under a name CURRENT already commits to.
  MutexLock publish(&publish_mu_);
  MARAS_ASSIGN_OR_RETURN(std::string bytes, EncodeSignalSnapshot(inputs));
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    return maras::Status::IOError("cannot create snapshot directory " +
                                  options_.dir + ": " + ec.message());
  }
  MARAS_ASSIGN_OR_RETURN(std::vector<uint64_t> generations, ListGenerations());
  const uint64_t next = generations.empty() ? 1 : generations.back() + 1;
  const std::string name = GenerationFileName(next);

  // Each hook site is a crash point a test can trigger; a false return
  // stops Publish with whatever the directory holds at that instant — no
  // cleanup, exactly like a kill.
  if (!RunHook(options_.stage_hook, "publish.pre-snapshot-write")) {
    return maras::Status::Cancelled(
        "simulated crash at publish.pre-snapshot-write");
  }
  MARAS_RETURN_IF_ERROR_CTX(
      maras::AtomicWriteStringToFile(options_.dir + "/" + name, bytes),
      "writing generation " + std::to_string(next));
  if (!RunHook(options_.stage_hook, "publish.post-snapshot-write")) {
    return maras::Status::Cancelled(
        "simulated crash at publish.post-snapshot-write");
  }
  if (!RunHook(options_.stage_hook, "publish.pre-current-write")) {
    return maras::Status::Cancelled(
        "simulated crash at publish.pre-current-write");
  }
  MARAS_RETURN_IF_ERROR_CTX(
      maras::AtomicWriteStringToFile(
          options_.dir + "/" + std::string(kCurrentFile), name),
      "committing generation " + std::to_string(next));
  if (!RunHook(options_.stage_hook, "publish.post-current-write")) {
    return maras::Status::Cancelled(
        "simulated crash at publish.post-current-write");
  }
  return Refresh();
}

}  // namespace maras::serve
