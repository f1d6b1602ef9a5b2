// Fuzz harness for the signal-snapshot reader — the serving path maps
// whatever bytes survived on disk and hands them to this validator, so it
// must reject arbitrary input with a structured Corruption status: no
// crash, no over-read, no partially usable snapshot.
//
// When validation accepts, the harness enforces the format's canonical
// round-trip property: rebuilding the writer inputs from the snapshot and
// re-encoding them must reproduce the input image byte-for-byte, and every
// accessor must succeed over the full index range the counts advertise.

#include <cstdint>
#include <string_view>

#include "serve/snapshot_reader.h"
#include "serve/snapshot_writer.h"
#include "util/logging.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace maras;
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  auto snapshot = serve::SignalSnapshot::FromView(bytes);
  if (!snapshot.ok()) return 0;

  // Accepted: every advertised record must be reachable through the
  // bounds-validated accessors without an error.
  const serve::SnapshotCounts& counts = snapshot->counts();
  for (uint32_t i = 0; i < counts.items; ++i) {
    std::string_view name;
    mining::ItemDomain domain;
    MARAS_CHECK(snapshot->ItemName(i, &name).ok());
    MARAS_CHECK(snapshot->Domain(i, &domain).ok());
    std::vector<uint32_t> postings;
    MARAS_CHECK(snapshot->Postings(domain, i, &postings).ok());
  }
  for (uint32_t s = 0; s < counts.signals; ++s) {
    MARAS_CHECK(snapshot->Materialize(s).ok());
    std::vector<uint64_t> reports;
    MARAS_CHECK(snapshot->ReportIds(s, &reports).ok());
    std::vector<uint32_t> neighbors;
    MARAS_CHECK(snapshot->Generalizations(s, &neighbors).ok());
    MARAS_CHECK(snapshot->Specializations(s, &neighbors).ok());
  }

  // Canonical form: decode -> re-encode is the identity on the image.
  auto reconstructed = serve::ReconstructInputs(*snapshot);
  MARAS_CHECK(reconstructed.ok()) << reconstructed.status().ToString();
  serve::SnapshotInputs inputs;
  inputs.items = &reconstructed->items;
  inputs.signals = &reconstructed->signals;
  inputs.stats = reconstructed->stats;
  inputs.report_ids = &reconstructed->report_ids;
  auto reencoded = serve::EncodeSignalSnapshot(inputs);
  MARAS_CHECK(reencoded.ok()) << reencoded.status().ToString();
  MARAS_CHECK(*reencoded == bytes)
      << "decode->re-encode diverged from the accepted image";
  return 0;
}
