#include "workloads.h"

namespace perfbench {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "synthetic-update", "tpcc-read", "host-array", "synthetic-update-wal"};
  return kNames;
}

namespace {

// Every workload reports every span metric (zero where it has no such
// span), so all workloads share one per-layer schema.
const std::vector<SpanOut> kSpanOuts = {
    {"txn", "wl.txn", false, false, false},
    {"sql.select", "sql.select", false, false, true},
    {"sql.update", "sql.update", false, false, true},
    {"sql.commit", "sql.commit", false, false, true},
    {"tpcc.order_status", "tpcc.order_status", true, true, true},
    {"tpcc.stock_level", "tpcc.stock_level", true, true, true},
    {"tpcc.new_order", "tpcc.new_order", true, true, true},
    {"host.dispatch", "host.dispatch", false, false, true},
};

}  // namespace

void RunRound(const RoundSpec& spec, RoundResult* out) {
  if (spec.workload == "synthetic-update") {
    RunSynthetic(spec, /*wal=*/false, out);
  } else if (spec.workload == "synthetic-update-wal") {
    RunSynthetic(spec, /*wal=*/true, out);
  } else if (spec.workload == "tpcc-read") {
    RunTpccRead(spec, out);
  } else if (spec.workload == "host-array") {
    RunHostArray(spec, out);
  } else {
    out->violations.push_back("unknown workload " + spec.workload);
  }
  if (spec.traced) {
    const double scale =
        out->measured.raw_s() > 0
            ? out->measured.calibrated_s() / out->measured.raw_s()
            : 0.0;
    PutSpanMetrics(out->spans, kSpanOuts, out->committed, scale,
                   &out->traced);
  }
}

}  // namespace perfbench
