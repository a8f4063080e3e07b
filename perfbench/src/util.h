// Small shared pieces of the benchmark program: the input generator, the
// named-metric table, exact percentiles and host-clock helpers. Nothing here
// calls into the stack under test.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// SplitMix64: the benchmark's own input generator, so the inputs a seed
// produces never depend on the program's RNG.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double Unit() { return double(Next() >> 11) * 0x1.0p-53; }
  std::string Alpha(size_t len) {
    std::string s(len, 'a');
    for (auto& c : s) c = char('a' + Uniform(26));
    return s;
  }

 private:
  uint64_t state_;
};

// Derives an independent stream seed from the run seed and a purpose tag.
inline uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  InputRng r(seed * 0x100000001b3ull + tag);
  return r.Next();
}

struct MetricValue {
  double value = 0;
  std::string unit;
};

// Named metrics in name order. Two tables compare equal only when every
// name, unit and value matches bit for bit (the determinism self-check).
using Metrics = std::map<std::string, MetricValue>;

inline void Put(Metrics* m, const std::string& name, double value,
                const std::string& unit) {
  (*m)[name] = MetricValue{value, unit};
}

inline bool SameBits(const Metrics& a, const Metrics& b, std::string* diff) {
  for (const auto& [name, v] : a) {
    auto it = b.find(name);
    if (it == b.end()) {
      *diff = name + " missing";
      return false;
    }
    if (std::memcmp(&v.value, &it->second.value, sizeof(double)) != 0 ||
        v.unit != it->second.unit) {
      *diff = name + ": " + std::to_string(v.value) + " vs " +
              std::to_string(it->second.value);
      return false;
    }
  }
  if (a.size() != b.size()) {
    *diff = "metric sets differ in size";
    return false;
  }
  return true;
}

// Exact nearest-rank percentile of raw samples: the smallest sample with at
// least p of all samples at or below it.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t rank = size_t(std::ceil(p * double(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

// Samples strictly above the p-th percentile's rank.
inline size_t SamplesBeyond(size_t n, double p) {
  size_t rank = size_t(std::ceil(p * double(n)));
  return n > rank ? n - rank : 0;
}

// The middle sample, or the mean of the two middle samples of an even count.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  return 0.5 * (*std::max_element(v.begin(), v.begin() + mid) + upper);
}

inline double HostNow() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

inline double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

inline double PerTxn(double count, uint64_t txns) {
  return txns == 0 ? 0.0 : count / double(txns);
}

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
