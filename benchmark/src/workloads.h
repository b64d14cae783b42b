// The four workloads. Each runs in rounds; a round is a fresh deployment
// taken through the same phases:
//
//   1. Backup()   timed per file (or barrier to barrier when concurrent),
//                 then Flush() on every server (also timed)
//   2. the deployment is destroyed and reopened on the same directories
//      (as cdstore_cli reopens it on every invocation), so restores start
//      from a cold container cache
//   3. Restore()  timed; every restored byte is compared with the
//                 regenerated input outside the timed region. Steps 2-3
//                 repeat restore_passes() times, so workloads whose restore
//                 is short still time enough of it.
//   4. Maintain() timed retention + GC, then CheckRetained() (untimed)
//
// Inputs depend only on the seed, so every round of a run repeats the same
// work and counts repeat exactly across runs of one seed.
#ifndef CDSTORE_BENCHMARK_WORKLOADS_H_
#define CDSTORE_BENCHMARK_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace cdbench {

class Workload {
 public:
  virtual ~Workload() = default;

  virtual int users() const { return 1; }
  virtual cdstore::ClientOptions client_options() const { return {}; }
  virtual int restore_passes() const { return 1; }
  // Generations every cloud holds after the backup phase.
  virtual uint64_t expected_generations() const = 0;

  virtual void Backup(Round& r) = 0;
  virtual void Restore(Round& r) = 0;
  virtual void Maintain(Round& r) = 0;
  virtual void CheckRetained(Round& r) = 0;

  // Up to `max_bytes` of the workload's input, split as the workload splits
  // it into files: the input of the single-layer replays.
  virtual std::vector<cdstore::Bytes> ReplaySample(size_t max_bytes) const = 0;
};

// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace cdbench

#endif  // CDSTORE_BENCHMARK_WORKLOADS_H_
