// NWStats: the per-shard stats sink and the registry that renders it —
// the observability substrate under the four-layer stack (nw/nwa → query
// → opt → serve). Every instrumented layer takes an optional StatsSink*
// and reports through it; nullptr (the default everywhere) disables the
// instrumentation behind a branch on a pointer that is constant for the
// whole stream, so the disabled path costs one predicted-not-taken branch
// and the differential tests can pin byte-identical query output with
// stats on and off.
//
// Deployment shape: ONE StatsSink per shard (or per single-stream
// engine). All hot-path increments are single-writer plain adds
// (obs/metrics.h); the StatsRegistry aggregates across sinks at render
// time on the reader's thread. Rendering is stable: fixed key order in
// both the human text and the JSON, so snapshots diff cleanly across
// runs and the CI smoke test can validate required keys.
#ifndef NW_OBS_STATS_H_
#define NW_OBS_STATS_H_

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/prof.h"

namespace nw {

/// Every metric one shard (or one single-stream engine) reports, across
/// all four layers. Fields are grouped by the layer that writes them; a
/// layer never touches another layer's group, so one sink can be handed
/// to the tokenizer, the engine, the banks, and the shard loop at once.
struct StatsSink {
  // -- stream layer: the TokenStream front ends (XmlTokenStream,
  // JsonTokenStream, TraceTokenStream), flushed once per stream by the
  // shared StreamTally (stream/token_stream.h). --
  Counter stream_bytes;      ///< document bytes consumed by tokenization
  Counter stream_tokens;     ///< tagged positions yielded
  Counter stream_calls;      ///< call positions (open tags / containers)
  Counter stream_returns;    ///< return positions (close tags / containers)
  Counter stream_internals;  ///< internal positions (text chunks / events)
  Gauge stream_depth_hwm;    ///< call/return depth high-water mark
  Counter stream_docs_xml;   ///< streams tokenized by the XML front end
  Counter stream_docs_json;  ///< streams tokenized by the JSON front end
  Counter stream_docs_trace; ///< streams tokenized by the trace front end

  // -- query layer: QueryEngine, per completed RunAll document. --
  Counter engine_docs;         ///< documents streamed to completion
  Counter engine_positions;    ///< positions stepped across all documents
  Counter engine_docs_soa;     ///< documents taken on the per-query SoA path
  Counter engine_docs_bank;    ///< documents taken on the shared-bank path
  Counter engine_docs_frozen;  ///< documents taken on the frozen path
  Histogram doc_latency_us;    ///< per-document end-to-end latency (µs)

  // -- opt layer: SharedBank product exploration. --
  Counter bank_states;       ///< product states interned (explored)
  Counter bank_memo_hits;    ///< steps answered by the memo table
  Counter bank_memo_misses;  ///< steps that ran the K component automata

  // -- serve layer: snapshot-backed engines and banks, ShardedEvaluator.
  Counter frozen_hits;    ///< steps answered lock-free by the snapshot
  Counter frozen_misses;  ///< steps the snapshot missed (the bank took them)
  Counter overflow_steps;        ///< steps of a bank extending a snapshot
  Counter overflow_escalations;  ///< those landing on a bank-owned state
  Counter overflow_mapbacks;     ///< those landing back on a snapshot state
  Counter shard_docs;       ///< documents this shard pulled off the cursor
  Counter shard_bytes;      ///< bytes of those documents (skew witness)
  Counter shard_positions;  ///< positions this shard stepped
  Counter shard_busy_us;    ///< time spent streaming documents (µs)
  Counter shard_wait_us;    ///< worker wall time minus busy time (µs)
  Counter split_chunks;           ///< chunks SplitTopLevel produced
  Gauge split_max_chunk_bytes;    ///< largest chunk (a giant record = skew)
  Histogram split_chunk_bytes;    ///< chunk size distribution

  // -- daemon layer: NWDaemon control-plane (src/daemon/daemon.h), one
  // sink for the whole process (control ops serialize under the daemon's
  // admission mutex, which keeps the writes single-writer). --
  Counter daemon_requests;     ///< protocol requests accepted (all ops)
  Counter daemon_docs;         ///< documents submitted for evaluation
  Counter daemon_admissions;   ///< queries admitted online
  Counter daemon_retirements;  ///< queries retired online
  Counter daemon_refreshes;    ///< background epoch re-freezes published
  Gauge daemon_epoch;          ///< current serving epoch id
  Histogram admission_latency_us;  ///< ADMIT wall time, parse → epoch live

  /// Reader-side aggregation: counters sum, gauges max, histograms merge.
  void MergeFrom(const StatsSink& other);
};

/// Field schema over StatsSink: one entry per metric, with the stable
/// wire name (the JSON/Prometheus identity) and a one-line help string.
/// MergeFrom, the NWPulse snapshot engine (obs/pulse.h), and the
/// Prometheus renderer all iterate these tables, so adding a field to
/// StatsSink means adding exactly one schema row — the three consumers
/// cannot drift from the struct or from each other.
struct SinkCounterField {
  const char* name;
  const char* help;
  Counter StatsSink::*member;
};
struct SinkGaugeField {
  const char* name;
  const char* help;
  Gauge StatsSink::*member;
};
struct SinkHistogramField {
  const char* name;
  const char* help;
  Histogram StatsSink::*member;
};
const std::vector<SinkCounterField>& SinkCounterFields();
const std::vector<SinkGaugeField>& SinkGaugeFields();
const std::vector<SinkHistogramField>& SinkHistogramFields();

/// Labelled collection of sinks plus free-form metadata, rendered as
/// aligned human text or one stable JSON object. The registry does not
/// own the sinks; they must outlive it (in practice: sinks live in the
/// evaluator/CLI frame, the registry renders at exit).
class StatsRegistry {
 public:
  /// Registers a sink under `label` (e.g. "main", "shard/3"). Render
  /// order is registration order.
  void Register(std::string label, const StatsSink* sink);

  /// Metadata rendered under the "meta" key, in insertion order
  /// (strings and numbers kept distinct so the JSON types are right).
  void SetMeta(const std::string& key, std::string value);
  void SetMetaNum(const std::string& key, uint64_t value);

  /// Registers an NWProf per-query attribution table (obs/prof.h); the
  /// render merges all registered tables (one per shard) into the
  /// `queries` section. Like sinks, tables are held by pointer and must
  /// outlive the registry's renders; all tables must profile the same
  /// bank (same K).
  void RegisterAttribution(const QueryAttribution* attr);

  /// Human-readable query texts, in query-id order; rendered as the
  /// per-query `text` field when set (ids alone otherwise).
  void SetQueryLabels(std::vector<std::string> labels);

  /// Attaches the compile-phase timeline (obs/prof.h), rendered as the
  /// `compile` section. Must outlive the registry's renders.
  void SetTimeline(const CompileTimeline* timeline);

  const std::vector<const QueryAttribution*>& attributions() const {
    return attrs_;
  }

  size_t num_sinks() const { return sinks_.size(); }
  const std::vector<std::pair<std::string, const StatsSink*>>& sinks() const {
    return sinks_;
  }

  /// Sums every registered sink into `*out` (which the caller provides
  /// zeroed; a default-constructed StatsSink is).
  void Aggregate(StatsSink* out) const;

  /// Human-readable multi-line dump: aggregate per layer, then one line
  /// per sink for the shard-skew view.
  std::string RenderText() const;

  /// One JSON object with fixed key order:
  ///   {"meta":{...},"stream":{...},"engine":{...},"queries":{...},
  ///    "compile":{...},"bank":{...},"frozen":{...},"daemon":{...},
  ///    "serve":{...,"shards":[...]}}
  /// documented key-by-key in docs/OBSERVABILITY.md. The queries and
  /// compile sections render empty ({"docs":0,...,"per_query":[]} /
  /// {"total_us":0,"phases":[]}) when no attribution tables or timeline
  /// were attached, so the key set is stable either way.
  std::string RenderJson() const;

  /// Prometheus/OpenMetrics text exposition: every schema metric as one
  /// family (# HELP / # TYPE, then one series per registered sink with a
  /// sink="label" label), histograms as cumulative _bucket{le=...}/_sum/
  /// _count over the BucketLowerBound boundaries, attribution tables as
  /// per-query series (query="id"), plus nw_info/nw_meta for the metadata
  /// and nw_process_* machine context. Implemented by the NWPulse layer
  /// (obs/pulse.cc); name/label scheme in docs/OBSERVABILITY.md.
  std::string RenderProm() const;

 private:
  struct Meta {
    std::string key;
    std::string str;
    uint64_t num = 0;
    bool is_num = false;
  };
  std::vector<std::pair<std::string, const StatsSink*>> sinks_;
  std::vector<Meta> meta_;
  std::vector<const QueryAttribution*> attrs_;
  std::vector<std::string> query_labels_;
  const CompileTimeline* timeline_ = nullptr;
};

/// Appends `s` to `*out` as a JSON string literal (quotes + escapes).
void AppendJsonString(std::string* out, const std::string& s);

/// Appends `v` with 4 decimals — or `null` when `v` is NaN or ±Inf,
/// which are not JSON and must never reach a rendered report. Every
/// double the stats/pulse renderers emit goes through this.
void AppendJsonDouble(std::string* out, double v);

}  // namespace nw

#endif  // NW_OBS_STATS_H_
