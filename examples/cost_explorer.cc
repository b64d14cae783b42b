// Interactive-ish cost explorer for the §5.6 monetary analysis: pass your
// organization's parameters on the command line and get the monthly bill
// of CDStore vs the two baselines under Sept-2014 AWS pricing.
//
// The dedup ratio can come from a MEASUREMENT instead of an assumption:
// point --bench-json at a file of `benchmark/run.py --out` records (one
// JSON object per line). The last correct `fsl-weekly` record (the §5.2
// weekly snapshot series) gives the ratio n / (k * stored_bytes_per_logical)
// at the benchmark's (n,k) = (4,3): without dedup CDStore stores n/k bytes
// per logical byte, and the record says what the series actually stored.
// stored_bytes_per_logical counts every backend byte, recipes and
// container headers included, so this ratio is a little lower than one
// over share bytes alone.
//
//   ./build/cost_explorer [weekly_tb] [dedup_ratio] [retention_weeks]
//   ./build/cost_explorer 16 10 26
//   python3 benchmark/run.py --workload fsl-weekly --seconds 30 --out /tmp/fsl.jsonl
//   ./build/cost_explorer 16 --bench-json=/tmp/fsl.jsonl
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "src/cost/cost_model.h"

using namespace cdstore;

namespace {

// The benchmark's erasure-code parameters: kClouds in
// benchmark/src/harness.h and ClientOptions' default k.
constexpr int kBenchN = 4;
constexpr int kBenchK = 3;

int Usage() {
  std::fprintf(stderr,
               "usage: cost_explorer [weekly_tb] [dedup_ratio] [retention_weeks] "
               "[--bench-json=FILE]\n"
               "       weekly_tb and dedup_ratio are positive numbers, retention_weeks a\n"
               "       positive whole number; FILE holds benchmark/run.py --out records\n");
  return 2;
}

// Parses all of `text` as a finite positive number.
bool ParsePositive(const char* text, double* out) {
  char* end = nullptr;
  double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v <= 0) {
    return false;
  }
  *out = v;
  return true;
}

// Returns the position just past `"key":` and any spaces in a one-line
// JSON record, or npos.
size_t ValueAt(const std::string& line, const std::string& key, size_t from = 0) {
  size_t pos = line.find("\"" + key + "\"", from);
  if (pos == std::string::npos) {
    return pos;
  }
  return line.find_first_not_of(" :", pos + key.size() + 2);
}

// Scans run records for the last correct fsl-weekly one and returns its
// measured dedup ratio, or 0 when there is none.
double MeasuredDedupRatio(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 0;
  }
  std::string line;
  double ratio = 0;
  while (std::getline(in, line)) {
    size_t workload = ValueAt(line, "workload");
    size_t correct = ValueAt(line, "correct");
    size_t metric = ValueAt(line, "stored_bytes_per_logical");
    if (workload == std::string::npos || line.compare(workload, 12, "\"fsl-weekly\"") != 0 ||
        correct == std::string::npos || line.compare(correct, 4, "true") != 0 ||
        metric == std::string::npos) {
      continue;
    }
    size_t value = ValueAt(line, "value", metric);
    double stored = value == std::string::npos ? 0 : std::atof(line.c_str() + value);
    if (stored > 0) {
      ratio = kBenchN / (kBenchK * stored);  // last record wins (--out appends)
    }
  }
  return ratio;
}

}  // namespace

int main(int argc, char** argv) {
  CostScenario s;
  std::string bench_json;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--bench-json=", 13) == 0) {
      bench_json = argv[i] + 13;
      continue;
    }
    double v = 0;
    ++positional;
    if (positional > 3 || !ParsePositive(argv[i], &v) ||
        (positional == 3 && (v != std::floor(v) || v > INT_MAX))) {
      std::fprintf(stderr, "invalid argument: '%s'\n", argv[i]);
      return Usage();
    }
    if (positional == 1) s.weekly_backup_tb = v;
    if (positional == 2) s.dedup_ratio = v;
    if (positional == 3) s.retention_weeks = static_cast<int>(v);
  }
  bool measured = false;
  if (!bench_json.empty()) {
    double ratio = MeasuredDedupRatio(bench_json);
    if (ratio > 0) {
      s.dedup_ratio = ratio;
      measured = true;
    } else {
      std::fprintf(stderr, "no correct fsl-weekly record with stored_bytes_per_logical in %s; "
                           "using the assumed %.0fx\n",
                   bench_json.c_str(), s.dedup_ratio);
    }
  }

  std::printf("CDStore cost explorer (Sept 2014 AWS pricing)\n");
  std::printf("==============================================\n");
  std::printf("weekly backup: %.2f TB   dedup ratio: %.1fx%s   retention: %d weeks   "
              "(n,k)=(%d,%d)\n\n",
              s.weekly_backup_tb, s.dedup_ratio,
              measured ? " (measured by the fsl-weekly benchmark)" : " (assumed)",
              s.retention_weeks, s.n, s.k);
  std::printf("logical data under retention: %.1f TB\n\n",
              s.weekly_backup_tb * s.retention_weeks);

  CostBreakdown single = SingleCloudMonthlyCost(s);
  CostBreakdown aont = AontRsMonthlyCost(s);
  CostBreakdown cd = CdstoreMonthlyCost(s);

  std::printf("%-22s %-14s %-12s %-12s %-12s\n", "System", "Stored TB", "S3 $/mo", "EC2 $/mo",
              "Total $/mo");
  std::printf("%-22s %-14.1f %-12.0f %-12.0f %-12.0f\n", "Single cloud (no red.)",
              single.stored_tb, single.storage_usd, 0.0, single.total_usd);
  std::printf("%-22s %-14.1f %-12.0f %-12.0f %-12.0f\n", "AONT-RS multi-cloud",
              aont.stored_tb, aont.storage_usd, 0.0, aont.total_usd);
  std::printf("%-22s %-14.1f %-12.0f %-12.0f %-12.0f\n", "CDStore", cd.stored_tb,
              cd.storage_usd, cd.vm_usd, cd.total_usd);

  std::printf("\nCDStore VM choice: %d x %s per cloud (index %.1f GB per cloud)\n",
              cd.instances_per_cloud, cd.instance.c_str(), cd.index_gb_per_cloud);
  std::printf("\nSavings: %.1f%% vs AONT-RS, %.1f%% vs single cloud\n",
              100 * SavingVsAontRs(s), 100 * SavingVsSingleCloud(s));
  std::printf("(paper's case study at 16TB/10x/26wk: ~70%% vs AONT-RS)\n");
  return 0;
}
