// NWProf: per-query cost attribution and compile-phase timelines on top
// of the NWStats substrate (obs/metrics.h, obs/stats.h).
//
// NWStats (PR 6) observes the AGGREGATE pass — the engine spent N µs over
// M positions — but the paper's pitch is that ONE pass answers K queries
// at once, so the natural follow-up questions are per-query: which of the
// K queries matched how often, how big is each query's automaton before
// and after the optimizer, which queries keep escalating into overflow
// space? And per-phase: where did compile time go (parse → rewrite →
// lower → minimize → bank-build → explore → freeze)? This header holds
// the two answer tables.
//
// Threading model mirrors StatsSink: a QueryAttribution is SINGLE WRITER
// (one per shard / single-stream engine; all increments are relaxed
// single-writer adds) and the registry merges tables from all shards at
// render time on the reader's thread. A CompileTimeline is plain
// non-atomic data — compilation is single-threaded and the timeline is
// only read after the pipeline returns.
#ifndef NW_OBS_PROF_H_
#define NW_OBS_PROF_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace nw {

/// Everything attributed to ONE query of the bank. Counters follow the
/// single-writer discipline of obs/metrics.h; the gauges hold the
/// optimizer's per-query state counts (written once at compile time).
struct QueryProfile {
  /// Documents whose final accept set contains this query — the
  /// per-query share of engine.documents.
  Counter match_docs;
  /// Accept-set membership observations: one per stream position at
  /// which the query was observed accepting, plus the pre-input check
  /// (a query may accept the empty prefix). Identical on the SoA and
  /// product paths, with or without a snapshot — the differential tests
  /// pin this. Requires the engine's match tracking; 0 otherwise.
  Counter accept_positions;
  /// Overflow escalations (steps of a bank extending a snapshot that
  /// ended on a state the bank owns) attributed to this query: the
  /// query's run was still live in the escalated state, so IT is among
  /// the queries keeping the shard off the lock-free path.
  Counter escalations;
  /// Automaton states straight out of lowering (before minimization).
  Gauge states_compiled;
  /// Automaton states after minimization (== states_compiled when the
  /// minimizer did not run).
  Gauge states_final;
};

/// The per-query attribution table one writer (shard or single-stream
/// engine) fills: K QueryProfile cells plus table-level totals that are
/// pinned to the engine's aggregate counters (attribution.docs ==
/// engine_docs of the same sink, ditto positions), so the `queries`
/// section of the stats render can never drift from the `engine` section.
/// Cells live in a fixed-size array (metrics are atomics, hence neither
/// copyable nor movable) sized at construction to the bank's K.
class QueryAttribution {
 public:
  explicit QueryAttribution(size_t num_queries)
      : k_(num_queries), cells_(new QueryProfile[num_queries]()) {}

  size_t num_queries() const { return k_; }
  QueryProfile& query(size_t i) { return cells_[i]; }
  const QueryProfile& query(size_t i) const { return cells_[i]; }

  /// Table totals, incremented alongside the engine's document/position
  /// counters (see QueryEngine::set_attribution).
  Counter docs;
  Counter positions;

  /// Reader-side aggregation across shards: counters sum, gauges max
  /// (every shard compiles the same bank, so the maxima agree). Tables
  /// must be the same size.
  void MergeFrom(const QueryAttribution& other);

 private:
  size_t k_;
  std::unique_ptr<QueryProfile[]> cells_;
};

/// One compile-pipeline phase: its wall time and the product/automaton
/// state count it started from and ended at (0/0 for phases without a
/// natural state count, e.g. parse).
struct CompilePhase {
  std::string name;
  uint64_t us = 0;
  uint64_t states_before = 0;
  uint64_t states_after = 0;
};

/// Ordered record of the compile pipeline's phases: parse → rewrite →
/// lower → minimize → bank_build → explore → freeze (each present only
/// when its pass ran). Filled single-threaded by the CLI and the
/// optimizer pipeline; rendered by the stats registry as the `compile`
/// section so "is minimization dominating compile time?" is a one-flag
/// question (--stats).
class CompileTimeline {
 public:
  void Record(std::string name, uint64_t us, uint64_t states_before,
              uint64_t states_after) {
    phases_.push_back(
        {std::move(name), us, states_before, states_after});
  }

  const std::vector<CompilePhase>& phases() const { return phases_; }

  /// Sum of the recorded phases' µs (the pipeline's phases are disjoint,
  /// so this is total attributed compile time).
  uint64_t total_us() const {
    uint64_t total = 0;
    for (const CompilePhase& p : phases_) total += p.us;
    return total;
  }

 private:
  std::vector<CompilePhase> phases_;
};

}  // namespace nw

#endif  // NW_OBS_PROF_H_
