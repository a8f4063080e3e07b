#include "spans.h"

#include <cstdio>

namespace perfbench {

int SpanLog::Open(const char* name, int64_t sim_now) {
  if (!enabled_) return -1;
  int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, parent, txn_, sim_now, sim_now, HostNow(), 0});
  int32_t handle = int32_t(spans_.size() - 1);
  stack_.push_back(handle);
  return handle;
}

void SpanLog::Close(int handle, int64_t sim_now) {
  if (handle < 0) return;
  Span& s = spans_[size_t(handle)];
  s.host_end = HostNow();
  s.sim_end = sim_now;
  if (!stack_.empty() && stack_.back() == handle) stack_.pop_back();
}

void SpanLog::SetSimStart(int handle, int64_t sim_start) {
  if (handle >= 0) spans_[size_t(handle)].sim_start = sim_start;
}

std::map<std::string, SpanLog::Agg> SpanLog::Aggregate() const {
  // Children never overlap (one thread, nested calls), so the part of a
  // span its children cover is the sum of their durations.
  std::vector<double> child_host(spans_.size(), 0.0);
  std::vector<double> child_sim(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    child_host[size_t(s.parent)] += s.host_end - s.host_start;
    child_sim[size_t(s.parent)] += double(s.sim_end - s.sim_start);
  }
  std::map<std::string, Agg> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Agg& a = out[s.name];
    double host = s.host_end - s.host_start;
    double sim = double(s.sim_end - s.sim_start);
    a.count++;
    a.host_s += host;
    a.self_host_s += host - child_host[i];
    a.sim_ns += sim;
    a.self_sim_ns += sim - child_sim[i];
  }
  return out;
}

bool SpanLog::WriteJsonLines(const std::string& path, const std::string& round,
                             double host_scale) const {
  FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().host_start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"round\":\"%s\",\"id\":%zu,\"parent\":%d,\"txn\":%llu,"
                 "\"name\":\"%s\",\"sim_start_ns\":%lld,\"sim_end_ns\":%lld,"
                 "\"host_start_s\":%.9f,\"host_end_s\":%.9f}\n",
                 round.c_str(), i, s.parent, (unsigned long long)s.txn, s.name,
                 (long long)s.sim_start, (long long)s.sim_end,
                 (s.host_start - t0) * host_scale,
                 (s.host_end - t0) * host_scale);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
