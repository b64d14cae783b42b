// Single-layer replays for the traced run, fed from the workload's own
// inputs: each layer's public interface re-run on one thread over a sample
// of the workload's bytes (chunker, CAONT-RS, fingerprinting, wire codec,
// container store) or over the index inserts the traced rounds recorded
// (kvstore). They run after the rounds, so end-to-end runs never pay them.
#ifndef CDSTORE_BENCHMARK_REPLAY_H_
#define CDSTORE_BENCHMARK_REPLAY_H_

#include <string>
#include <vector>

#include "harness.h"
#include "metrics.h"

namespace cdbench {

struct ReplayInput {
  std::vector<cdstore::Bytes> files;  // input sample, one entry per file
  cdstore::ClientOptions client;      // the workload's chunking and (n, k)
  // Per session: the stored-share count of each UploadShares batch on
  // cloud 0, in order.
  std::vector<std::vector<uint32_t>> insert_batches;
  std::string work_dir;  // scratch space, removed afterwards
  uint64_t seed = 0;
};

// Appends the chunking.*, dispersal.*, fingerprint.*, codec.*, kvstore.*
// (replay) and container.* metrics. Failed round trips count in `ops`.
void RunReplays(const ReplayInput& in, Ops& ops, Metrics* out);

}  // namespace cdbench

#endif  // CDSTORE_BENCHMARK_REPLAY_H_
