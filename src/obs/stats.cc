#include "obs/stats.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "support/check.h"

namespace nw {

const std::vector<SinkCounterField>& SinkCounterFields() {
  static const std::vector<SinkCounterField> kFields = {
      {"stream_bytes", "document bytes consumed by tokenization",
       &StatsSink::stream_bytes},
      {"stream_tokens", "tagged positions yielded by the tokenizer",
       &StatsSink::stream_tokens},
      {"stream_calls", "call positions (open tags / containers)",
       &StatsSink::stream_calls},
      {"stream_returns", "return positions (close tags / containers)",
       &StatsSink::stream_returns},
      {"stream_internals", "internal positions (text chunks / events)",
       &StatsSink::stream_internals},
      {"stream_docs_xml", "streams tokenized by the XML front end",
       &StatsSink::stream_docs_xml},
      {"stream_docs_json", "streams tokenized by the JSON front end",
       &StatsSink::stream_docs_json},
      {"stream_docs_trace", "streams tokenized by the trace front end",
       &StatsSink::stream_docs_trace},
      {"engine_docs", "documents streamed to completion",
       &StatsSink::engine_docs},
      {"engine_positions", "positions stepped across all documents",
       &StatsSink::engine_positions},
      {"engine_docs_soa", "documents taken on the per-query SoA path",
       &StatsSink::engine_docs_soa},
      {"engine_docs_bank", "documents taken on the shared-bank path",
       &StatsSink::engine_docs_bank},
      {"engine_docs_frozen", "documents taken on the frozen path",
       &StatsSink::engine_docs_frozen},
      {"bank_states", "product states interned (explored)",
       &StatsSink::bank_states},
      {"bank_memo_hits", "steps answered by the memo table",
       &StatsSink::bank_memo_hits},
      {"bank_memo_misses", "steps that ran the K component automata",
       &StatsSink::bank_memo_misses},
      {"frozen_hits", "steps answered lock-free by the snapshot",
       &StatsSink::frozen_hits},
      {"frozen_misses", "steps the snapshot missed (the bank took them)",
       &StatsSink::frozen_misses},
      {"overflow_steps", "steps of a bank extending a snapshot",
       &StatsSink::overflow_steps},
      {"overflow_escalations", "overflow steps landing on a bank-owned state",
       &StatsSink::overflow_escalations},
      {"overflow_mapbacks", "overflow steps landing back on a snapshot state",
       &StatsSink::overflow_mapbacks},
      {"shard_docs", "documents this shard pulled off the cursor",
       &StatsSink::shard_docs},
      {"shard_bytes", "bytes of the documents this shard streamed",
       &StatsSink::shard_bytes},
      {"shard_positions", "positions this shard stepped",
       &StatsSink::shard_positions},
      {"shard_busy_us", "time spent streaming documents (us)",
       &StatsSink::shard_busy_us},
      {"shard_wait_us", "worker wall time minus busy time (us)",
       &StatsSink::shard_wait_us},
      {"split_chunks", "chunks SplitTopLevel produced",
       &StatsSink::split_chunks},
      {"daemon_requests", "protocol requests accepted (all ops)",
       &StatsSink::daemon_requests},
      {"daemon_docs", "documents submitted for evaluation",
       &StatsSink::daemon_docs},
      {"daemon_admissions", "queries admitted online",
       &StatsSink::daemon_admissions},
      {"daemon_retirements", "queries retired online",
       &StatsSink::daemon_retirements},
      {"daemon_refreshes", "background epoch re-freezes published",
       &StatsSink::daemon_refreshes},
  };
  return kFields;
}

const std::vector<SinkGaugeField>& SinkGaugeFields() {
  static const std::vector<SinkGaugeField> kFields = {
      {"stream_depth_hwm", "call/return depth high-water mark",
       &StatsSink::stream_depth_hwm},
      {"split_max_chunk_bytes", "largest SplitTopLevel chunk (skew witness)",
       &StatsSink::split_max_chunk_bytes},
      {"daemon_epoch", "current serving epoch id",
       &StatsSink::daemon_epoch},
  };
  return kFields;
}

const std::vector<SinkHistogramField>& SinkHistogramFields() {
  static const std::vector<SinkHistogramField> kFields = {
      {"doc_latency_us", "per-document end-to-end latency (us)",
       &StatsSink::doc_latency_us},
      {"split_chunk_bytes", "SplitTopLevel chunk size distribution",
       &StatsSink::split_chunk_bytes},
      {"admission_latency_us", "ADMIT wall time, parse to epoch live (us)",
       &StatsSink::admission_latency_us},
      {"submit_wait_us", "SUBMIT time waiting for an engine slot (us)",
       &StatsSink::submit_wait_us},
      {"submit_decode_us", "SUBMIT time decoding the request line (us)",
       &StatsSink::submit_decode_us},
      {"submit_eval_us", "SUBMIT time evaluating the document (us)",
       &StatsSink::submit_eval_us},
      {"submit_send_us", "SUBMIT time rendering and sending the reply (us)",
       &StatsSink::submit_send_us},
  };
  return kFields;
}

void StatsSink::MergeFrom(const StatsSink& other) {
  for (const SinkCounterField& f : SinkCounterFields()) {
    (this->*f.member).MergeFrom(other.*f.member);
  }
  for (const SinkGaugeField& f : SinkGaugeFields()) {
    (this->*f.member).MergeMaxFrom(other.*f.member);
  }
  for (const SinkHistogramField& f : SinkHistogramFields()) {
    (this->*f.member).MergeFrom(other.*f.member);
  }
}

void StatsRegistry::Register(std::string label, const StatsSink* sink) {
  sinks_.emplace_back(std::move(label), sink);
}

void StatsRegistry::SetMeta(const std::string& key, std::string value) {
  for (Meta& m : meta_) {
    if (m.key == key) {
      m.str = std::move(value);
      m.is_num = false;
      return;
    }
  }
  meta_.push_back({key, std::move(value), 0, false});
}

void StatsRegistry::SetMetaNum(const std::string& key, uint64_t value) {
  for (Meta& m : meta_) {
    if (m.key == key) {
      m.num = value;
      m.is_num = true;
      return;
    }
  }
  meta_.push_back({key, {}, value, true});
}

void StatsRegistry::RegisterAttribution(const QueryAttribution* attr) {
  NW_CHECK_MSG(attr != nullptr, "RegisterAttribution() needs a table");
  NW_CHECK_MSG(attrs_.empty() ||
                   attrs_.front()->num_queries() == attr->num_queries(),
               "attribution tables disagree on the bank size (%zu vs %zu)",
               attrs_.front()->num_queries(), attr->num_queries());
  attrs_.push_back(attr);
}

void StatsRegistry::SetQueryLabels(std::vector<std::string> labels) {
  query_labels_ = std::move(labels);
}

void StatsRegistry::SetTimeline(const CompileTimeline* timeline) {
  timeline_ = timeline;
}

void StatsRegistry::Aggregate(StatsSink* out) const {
  for (const auto& [label, sink] : sinks_) out->MergeFrom(*sink);
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonDouble(std::string* out, double v) {
  if (!std::isfinite(v)) {
    *out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  *out += buf;
}

namespace {

void AppendNum(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

/// `"key":value` with a leading comma when not first in its object.
void Field(std::string* out, bool* first, const char* key, uint64_t v) {
  if (!*first) out->push_back(',');
  *first = false;
  AppendJsonString(out, key);
  out->push_back(':');
  AppendNum(out, v);
}

/// Ratio keys (`utilization`, `hit_rate`, `mean`, the pulse `rate` keys)
/// all land here; the shared guard in AppendJsonDouble renders `null`
/// for NaN/Inf so a division can never poison the JSON.
void FieldDbl(std::string* out, bool* first, const char* key, double v) {
  if (!*first) out->push_back(',');
  *first = false;
  AppendJsonString(out, key);
  out->push_back(':');
  AppendJsonDouble(out, v);
}

void AppendHistogram(std::string* out, const Histogram& h) {
  bool first = true;
  out->push_back('{');
  Field(out, &first, "count", h.count());
  Field(out, &first, "sum", h.sum());
  Field(out, &first, "max", h.max());
  FieldDbl(out, &first, "mean", h.mean());
  Field(out, &first, "p50", h.Percentile(0.50));
  Field(out, &first, "p90", h.Percentile(0.90));
  Field(out, &first, "p99", h.Percentile(0.99));
  out->push_back('}');
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Did any step take the frozen path at all? With zero traffic there is
/// no hit rate to report — the render says null/n-a instead of a
/// misleading 1.0 (a run that never served frozen is not "100% hits").
bool HasFrozenTraffic(const StatsSink& s) {
  return s.frozen_hits.value() + s.frozen_misses.value() > 0;
}

/// Fraction of frozen-path steps served lock-free. Only meaningful when
/// HasFrozenTraffic; callers gate on that.
double HitRate(const StatsSink& s) {
  return Ratio(s.frozen_hits.value(),
               s.frozen_hits.value() + s.frozen_misses.value());
}

/// busy / (busy + wait): the shard utilization the skew view reports.
double Utilization(const StatsSink& s) {
  uint64_t total = s.shard_busy_us.value() + s.shard_wait_us.value();
  return total == 0 ? 0.0 : Ratio(s.shard_busy_us.value(), total);
}

}  // namespace

std::string StatsRegistry::RenderJson() const {
  StatsSink agg;
  Aggregate(&agg);
  std::string out;
  out.push_back('{');
  // meta
  AppendJsonString(&out, "meta");
  out += ":{";
  bool first = true;
  for (const Meta& m : meta_) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, m.key);
    out.push_back(':');
    if (m.is_num) {
      AppendNum(&out, m.num);
    } else {
      AppendJsonString(&out, m.str);
    }
  }
  out += "},";
  // stream
  AppendJsonString(&out, "stream");
  out += ":{";
  first = true;
  Field(&out, &first, "bytes", agg.stream_bytes.value());
  Field(&out, &first, "tokens", agg.stream_tokens.value());
  Field(&out, &first, "calls", agg.stream_calls.value());
  Field(&out, &first, "returns", agg.stream_returns.value());
  Field(&out, &first, "internals", agg.stream_internals.value());
  Field(&out, &first, "depth_hwm", agg.stream_depth_hwm.value());
  out += ",\"format\":{";
  bool ff = true;
  Field(&out, &ff, "xml", agg.stream_docs_xml.value());
  Field(&out, &ff, "json", agg.stream_docs_json.value());
  Field(&out, &ff, "trace", agg.stream_docs_trace.value());
  out += "}},";
  // engine
  AppendJsonString(&out, "engine");
  out += ":{";
  first = true;
  Field(&out, &first, "documents", agg.engine_docs.value());
  Field(&out, &first, "positions", agg.engine_positions.value());
  Field(&out, &first, "docs_soa", agg.engine_docs_soa.value());
  Field(&out, &first, "docs_bank", agg.engine_docs_bank.value());
  Field(&out, &first, "docs_frozen", agg.engine_docs_frozen.value());
  if (!first) out.push_back(',');
  AppendJsonString(&out, "doc_latency_us");
  out.push_back(':');
  AppendHistogram(&out, agg.doc_latency_us);
  out += "},";
  // queries (NWProf per-query attribution; empty table when none was
  // attached, so the key set is stable)
  const size_t k = attrs_.empty() ? 0 : attrs_.front()->num_queries();
  QueryAttribution attr_agg(k);
  for (const QueryAttribution* a : attrs_) attr_agg.MergeFrom(*a);
  AppendJsonString(&out, "queries");
  out += ":{";
  first = true;
  Field(&out, &first, "docs", attr_agg.docs.value());
  Field(&out, &first, "positions", attr_agg.positions.value());
  out += ",\"per_query\":[";
  for (size_t i = 0; i < k; ++i) {
    if (i > 0) out.push_back(',');
    const QueryProfile& q = attr_agg.query(i);
    out.push_back('{');
    bool f = true;
    Field(&out, &f, "id", i);
    if (i < query_labels_.size()) {
      out += ",\"text\":";
      AppendJsonString(&out, query_labels_[i]);
    }
    Field(&out, &f, "states_compiled", q.states_compiled.value());
    Field(&out, &f, "states_final", q.states_final.value());
    Field(&out, &f, "match_docs", q.match_docs.value());
    Field(&out, &f, "accept_positions", q.accept_positions.value());
    Field(&out, &f, "escalations", q.escalations.value());
    out.push_back('}');
  }
  out += "]},";
  // compile (NWProf phase timeline; empty when none was attached)
  AppendJsonString(&out, "compile");
  out += ":{";
  first = true;
  Field(&out, &first, "total_us",
        timeline_ == nullptr ? 0 : timeline_->total_us());
  out += ",\"phases\":[";
  if (timeline_ != nullptr) {
    const std::vector<CompilePhase>& phases = timeline_->phases();
    for (size_t i = 0; i < phases.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += "{\"name\":";
      AppendJsonString(&out, phases[i].name);
      bool f = false;
      Field(&out, &f, "us", phases[i].us);
      Field(&out, &f, "states_before", phases[i].states_before);
      Field(&out, &f, "states_after", phases[i].states_after);
      out.push_back('}');
    }
  }
  out += "]},";
  // bank
  AppendJsonString(&out, "bank");
  out += ":{";
  first = true;
  Field(&out, &first, "states_interned", agg.bank_states.value());
  Field(&out, &first, "memo_hits", agg.bank_memo_hits.value());
  Field(&out, &first, "memo_misses", agg.bank_memo_misses.value());
  out += "},";
  // frozen
  AppendJsonString(&out, "frozen");
  out += ":{";
  first = true;
  Field(&out, &first, "hits", agg.frozen_hits.value());
  Field(&out, &first, "misses", agg.frozen_misses.value());
  if (HasFrozenTraffic(agg)) {
    FieldDbl(&out, &first, "hit_rate", HitRate(agg));
  } else {
    out += ",\"hit_rate\":null";
  }
  Field(&out, &first, "overflow_steps", agg.overflow_steps.value());
  Field(&out, &first, "overflow_escalations",
        agg.overflow_escalations.value());
  Field(&out, &first, "overflow_mapbacks", agg.overflow_mapbacks.value());
  out += "},";
  // daemon (all-zero outside nwqueryd, so the key set is stable)
  AppendJsonString(&out, "daemon");
  out += ":{";
  first = true;
  Field(&out, &first, "requests", agg.daemon_requests.value());
  Field(&out, &first, "documents", agg.daemon_docs.value());
  Field(&out, &first, "admissions", agg.daemon_admissions.value());
  Field(&out, &first, "retirements", agg.daemon_retirements.value());
  Field(&out, &first, "refreshes", agg.daemon_refreshes.value());
  Field(&out, &first, "epoch", agg.daemon_epoch.value());
  if (!first) out.push_back(',');
  AppendJsonString(&out, "admission_latency_us");
  out.push_back(':');
  AppendHistogram(&out, agg.admission_latency_us);
  const std::pair<const char*, const Histogram*> submit_shares[] = {
      {"submit_wait_us", &agg.submit_wait_us},
      {"submit_decode_us", &agg.submit_decode_us},
      {"submit_eval_us", &agg.submit_eval_us},
      {"submit_send_us", &agg.submit_send_us},
  };
  for (const auto& [name, hist] : submit_shares) {
    out.push_back(',');
    AppendJsonString(&out, name);
    out.push_back(':');
    AppendHistogram(&out, *hist);
  }
  out += "},";
  // serve
  AppendJsonString(&out, "serve");
  out += ":{";
  first = true;
  Field(&out, &first, "split_chunks", agg.split_chunks.value());
  Field(&out, &first, "split_max_chunk_bytes",
        agg.split_max_chunk_bytes.value());
  if (!first) out.push_back(',');
  AppendJsonString(&out, "split_chunk_bytes");
  out.push_back(':');
  AppendHistogram(&out, agg.split_chunk_bytes);
  out += ",";
  AppendJsonString(&out, "shards");
  out += ":[";
  for (size_t i = 0; i < sinks_.size(); ++i) {
    if (i > 0) out.push_back(',');
    const auto& [label, sink] = sinks_[i];
    out.push_back('{');
    AppendJsonString(&out, "label");
    out.push_back(':');
    AppendJsonString(&out, label);
    bool f = false;  // label was the first field
    Field(&out, &f, "docs", sink->shard_docs.value());
    Field(&out, &f, "bytes", sink->shard_bytes.value());
    Field(&out, &f, "positions", sink->shard_positions.value());
    Field(&out, &f, "busy_us", sink->shard_busy_us.value());
    Field(&out, &f, "wait_us", sink->shard_wait_us.value());
    FieldDbl(&out, &f, "utilization", Utilization(*sink));
    Field(&out, &f, "frozen_hits", sink->frozen_hits.value());
    Field(&out, &f, "frozen_misses", sink->frozen_misses.value());
    Field(&out, &f, "depth_hwm", sink->stream_depth_hwm.value());
    out.push_back('}');
  }
  out += "]}}";
  return out;
}

std::string StatsRegistry::RenderText() const {
  StatsSink agg;
  Aggregate(&agg);
  std::string out;
  char buf[512];
  for (const Meta& m : meta_) {
    if (m.is_num) {
      std::snprintf(buf, sizeof(buf), "meta     %s=%" PRIu64 "\n",
                    m.key.c_str(), m.num);
    } else {
      std::snprintf(buf, sizeof(buf), "meta     %s=%s\n", m.key.c_str(),
                    m.str.c_str());
    }
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "stream   bytes=%" PRIu64 " tokens=%" PRIu64 " calls=%" PRIu64
                " returns=%" PRIu64 " internals=%" PRIu64
                " depth_hwm=%" PRIu64 " docs_xml=%" PRIu64
                " docs_json=%" PRIu64 " docs_trace=%" PRIu64 "\n",
                agg.stream_bytes.value(), agg.stream_tokens.value(),
                agg.stream_calls.value(), agg.stream_returns.value(),
                agg.stream_internals.value(), agg.stream_depth_hwm.value(),
                agg.stream_docs_xml.value(), agg.stream_docs_json.value(),
                agg.stream_docs_trace.value());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "engine   documents=%" PRIu64 " positions=%" PRIu64
                " docs_soa=%" PRIu64 " docs_bank=%" PRIu64
                " docs_frozen=%" PRIu64 "\n",
                agg.engine_docs.value(), agg.engine_positions.value(),
                agg.engine_docs_soa.value(), agg.engine_docs_bank.value(),
                agg.engine_docs_frozen.value());
  out += buf;
  const Histogram& h = agg.doc_latency_us;
  std::snprintf(buf, sizeof(buf),
                "latency  count=%" PRIu64 " mean_us=%.1f p50_us=%" PRIu64
                " p90_us=%" PRIu64 " p99_us=%" PRIu64 " max_us=%" PRIu64 "\n",
                h.count(), h.mean(), h.Percentile(0.50), h.Percentile(0.90),
                h.Percentile(0.99), h.max());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "bank     states_interned=%" PRIu64 " memo_hits=%" PRIu64
                " memo_misses=%" PRIu64 "\n",
                agg.bank_states.value(), agg.bank_memo_hits.value(),
                agg.bank_memo_misses.value());
  out += buf;
  char rate[16] = "n/a";
  if (HasFrozenTraffic(agg)) {
    std::snprintf(rate, sizeof(rate), "%.4f", HitRate(agg));
  }
  std::snprintf(buf, sizeof(buf),
                "frozen   hits=%" PRIu64 " misses=%" PRIu64
                " hit_rate=%s overflow_steps=%" PRIu64
                " escalations=%" PRIu64 " mapbacks=%" PRIu64 "\n",
                agg.frozen_hits.value(), agg.frozen_misses.value(), rate,
                agg.overflow_steps.value(),
                agg.overflow_escalations.value(),
                agg.overflow_mapbacks.value());
  out += buf;
  if (agg.daemon_requests.value() > 0) {
    std::snprintf(buf, sizeof(buf),
                  "daemon   requests=%" PRIu64 " documents=%" PRIu64
                  " admissions=%" PRIu64 " retirements=%" PRIu64
                  " refreshes=%" PRIu64 " epoch=%" PRIu64
                  " admit_p99_us=%" PRIu64 "\n",
                  agg.daemon_requests.value(), agg.daemon_docs.value(),
                  agg.daemon_admissions.value(),
                  agg.daemon_retirements.value(),
                  agg.daemon_refreshes.value(), agg.daemon_epoch.value(),
                  agg.admission_latency_us.Percentile(0.99));
    out += buf;
  }
  if (!attrs_.empty()) {
    const size_t k = attrs_.front()->num_queries();
    QueryAttribution attr_agg(k);
    for (const QueryAttribution* a : attrs_) attr_agg.MergeFrom(*a);
    for (size_t i = 0; i < k; ++i) {
      const QueryProfile& q = attr_agg.query(i);
      std::snprintf(buf, sizeof(buf),
                    "query    id=%zu states=%" PRIu64 "->%" PRIu64
                    " match_docs=%" PRIu64 " accept_positions=%" PRIu64
                    " escalations=%" PRIu64 "%s%s\n",
                    i, q.states_compiled.value(), q.states_final.value(),
                    q.match_docs.value(), q.accept_positions.value(),
                    q.escalations.value(),
                    i < query_labels_.size() ? " text=" : "",
                    i < query_labels_.size() ? query_labels_[i].c_str() : "");
      out += buf;
    }
  }
  if (timeline_ != nullptr) {
    for (const CompilePhase& p : timeline_->phases()) {
      std::snprintf(buf, sizeof(buf),
                    "compile  phase=%s us=%" PRIu64 " states=%" PRIu64
                    "->%" PRIu64 "\n",
                    p.name.c_str(), p.us, p.states_before, p.states_after);
      out += buf;
    }
  }
  if (agg.split_chunks.value() > 0) {
    std::snprintf(buf, sizeof(buf),
                  "split    chunks=%" PRIu64 " max_chunk_bytes=%" PRIu64
                  " p50_bytes=%" PRIu64 " p99_bytes=%" PRIu64 "\n",
                  agg.split_chunks.value(), agg.split_max_chunk_bytes.value(),
                  agg.split_chunk_bytes.Percentile(0.50),
                  agg.split_chunk_bytes.Percentile(0.99));
    out += buf;
  }
  for (const auto& [label, sink] : sinks_) {
    std::snprintf(buf, sizeof(buf),
                  "%-8s docs=%" PRIu64 " bytes=%" PRIu64 " positions=%" PRIu64
                  " busy_us=%" PRIu64 " wait_us=%" PRIu64
                  " utilization=%.4f\n",
                  label.c_str(), sink->shard_docs.value(),
                  sink->shard_bytes.value(), sink->shard_positions.value(),
                  sink->shard_busy_us.value(), sink->shard_wait_us.value(),
                  Utilization(*sink));
    out += buf;
  }
  return out;
}

}  // namespace nw
