// Column storage: absolute cost of the wide string-heavy workload.
//
//   wide_scan — a wide 7-column relation (5 long low-cardinality string
//     columns) joined through a selective multi-column filter
//       hit(K) <- query(Q), wide(K, Q, "tagA..", .., "tagE..").
//     The measured phase seeds the wide relation and then churns both
//     sides: wide-row delete/reinsert batches (storage + secondary-index
//     maintenance on string-heavy rows) and query probes with a hit/miss
//     mix (misses answer from the dictionary without touching buckets).
//     Relations store u32 dictionary codes and intern each distinct string
//     once, so this is the workload where the footprint gauges move.
//
// Records seconds plus the dict/column/index byte gauges, with no gate:
// there is no second layout left to compare against, so the numbers are
// a trajectory entry, not an A/B. Timings are min-of-SB_TRIALS (default
// 3). SB_QUICK=1 shrinks sizes for CI. Set SB_BENCH_OUT=<path> to record
// results as BENCH_column.json.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "datalog/parser.h"
#include "engine/workspace.h"

using namespace secureblox;
using namespace secureblox::bench;
using engine::FactUpdate;
using engine::Workspace;
using datalog::Value;

namespace {

bool Install(Workspace* ws, const std::string& src) {
  auto program = datalog::Parse(src);
  if (!program.ok()) {
    std::fprintf(stderr, "parse: %s\n", program.status().ToString().c_str());
    return false;
  }
  Status st = ws->Install(program.value());
  if (!st.ok()) {
    std::fprintf(stderr, "install: %s\n", st.ToString().c_str());
    return false;
  }
  return true;
}

bool Apply(Workspace* ws, const std::vector<FactUpdate>& ins,
           const std::vector<FactUpdate>& del = {}) {
  auto r = ws->Apply(ins, del);
  if (!r.ok()) {
    std::fprintf(stderr, "apply: %s\n", r.status().ToString().c_str());
    return false;
  }
  return true;
}

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct RunStats {
  double seconds = -1;      // measured phase
  double dict_bytes = 0;    // EngineStats gauges after the run
  double column_bytes = 0;
  double index_bytes = 0;
};

// 40+ char payload so every materialized copy is a real heap string.
std::string Tag(char col, int64_t v) {
  return std::string(1, col) + "-column-payload-padding-padding-padding-" +
         std::to_string(v);
}

/// Wide string-heavy relation under a selective filter join plus
/// delete/reinsert churn. Seeding is part of the measured phase: bulk
/// ingest cost is exactly what the storage layout changes.
RunStats RunWideScan() {
  const int64_t wide_rows = QuickMode() ? 1500 : 6000;
  const int64_t qkeys = 64;  // distinct Q values in wide
  const int64_t tags = 16;   // distinct values per string column
  const int iters = QuickMode() ? 15 : 40;

  Workspace ws;
  const std::string rule =
      "hit(K) <- query(Q), wide(K, Q, \"" + Tag('a', 3) + "\", \"" +
      Tag('b', 3) + "\", \"" + Tag('c', 3) + "\", \"" + Tag('d', 3) +
      "\", \"" + Tag('e', 3) + "\").";
  if (!Install(&ws, R"(
        query(Q) -> int(Q).
        wide(K, Q, A, B, C, D, E) -> int(K), int(Q), string(A), string(B),
                                     string(C), string(D), string(E).
        hit(K) -> int(K).
      )" + rule)) {
    return {};
  }

  auto wide_row = [&](int64_t i) {
    const int64_t tag = i % tags;
    return FactUpdate{"wide",
                      {Value::Int(i), Value::Int(i % qkeys),
                       Value::Str(Tag('a', tag)), Value::Str(Tag('b', tag)),
                       Value::Str(Tag('c', tag)), Value::Str(Tag('d', tag)),
                       Value::Str(Tag('e', tag))}};
  };

  auto t0 = std::chrono::steady_clock::now();
  std::vector<FactUpdate> seed;
  seed.reserve(static_cast<size_t>(wide_rows));
  for (int64_t i = 0; i < wide_rows; ++i) seed.push_back(wide_row(i));
  if (!Apply(&ws, seed)) return {};

  for (int i = 0; i < iters; ++i) {
    // Hit probe: Q present, filter tags match 1/16 of its rows.
    FactUpdate hit{"query", {Value::Int((i * 7) % qkeys)}};
    // Miss probe: Q absent from wide — the dictionary answers directly.
    FactUpdate miss{"query", {Value::Int(qkeys + 1000 + i)}};
    if (!Apply(&ws, {hit, miss})) return {};
    if (!Apply(&ws, {}, {hit, miss})) return {};
    // Storage churn: delete and reinsert a stripe of wide rows
    // (swap-remove + index patching on string-heavy rows).
    std::vector<FactUpdate> stripe;
    for (int64_t k = 0; k < 40; ++k) {
      stripe.push_back(wide_row((i * 40 + k) % wide_rows));
    }
    if (!Apply(&ws, {}, stripe)) return {};
    if (!Apply(&ws, stripe)) return {};
  }
  RunStats out;
  out.seconds = Seconds(t0);
  out.dict_bytes = static_cast<double>(ws.stats().relation_dict_bytes);
  out.column_bytes = static_cast<double>(ws.stats().relation_column_bytes);
  out.index_bytes = static_cast<double>(ws.stats().relation_index_bytes);
  return out;
}

RunStats MinOfTrials() {
  RunStats best;
  for (size_t t = 0; t < Trials(); ++t) {
    RunStats r = RunWideScan();
    if (r.seconds < 0) return r;  // propagate failure
    if (best.seconds < 0 || r.seconds < best.seconds) best = r;
  }
  return best;
}

}  // namespace

int main() {
  PrintTitle("Column storage: wide string-heavy filter join with churn");
  PrintHeader({"workload", "seconds", "dict_bytes", "column_bytes",
               "index_bytes"});
  const RunStats r = MinOfTrials();
  if (r.seconds < 0) return 1;
  std::printf("wide_scan\t%.4f\t%.0f\t%.0f\t%.0f\n", r.seconds,
              r.dict_bytes, r.column_bytes, r.index_bytes);

  if (const char* out_path = std::getenv("SB_BENCH_OUT")) {
    FILE* json = std::fopen(out_path, "w");
    if (json == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path);
      return 1;
    }
    std::fprintf(json,
                 "{\n  \"benchmark\": \"abl_column_ab\",\n"
                 "  \"trials\": %zu,\n  \"rows\": [\n"
                 "    {\"workload\": \"wide_scan\", \"seconds\": %.6f, "
                 "\"dict_bytes\": %.0f, \"column_bytes\": %.0f, "
                 "\"index_bytes\": %.0f}\n  ]\n}\n",
                 Trials(), r.seconds, r.dict_bytes, r.column_bytes,
                 r.index_bytes);
    std::fclose(json);
  }
  return 0;
}
