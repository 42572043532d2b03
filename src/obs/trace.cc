#include "obs/trace.h"

#include <cstdlib>
#include <cstring>

#include "obs/stats.h"

namespace nw {

Tracer::Tracer(const std::string& path, TraceFormat format)
    : format_(format), epoch_(std::chrono::steady_clock::now()) {
  if (path == "-") {
    file_ = stderr;
  } else {
    // A chrome trace is one JSON array, so the file cannot be shared
    // with a previous run's output the way appended JSONL can.
    file_ = std::fopen(path.c_str(),
                       format_ == TraceFormat::kChrome ? "w" : "a");
    owns_file_ = file_ != nullptr;
  }
  if (file_ != nullptr && format_ == TraceFormat::kChrome) {
    std::fputs("[", file_);
  }
}

Tracer::~Tracer() {
  if (file_ != nullptr && format_ == TraceFormat::kChrome) {
    std::fputs("\n]\n", file_);
  }
  if (owns_file_) std::fclose(file_);
}

std::unique_ptr<Tracer> Tracer::FromEnv(const char* var,
                                        const char* format_var) {
  const char* path = std::getenv(var);
  if (path == nullptr || *path == '\0') return nullptr;
  const char* fmt = std::getenv(format_var);
  TraceFormat format = fmt != nullptr && std::strcmp(fmt, "chrome") == 0
                           ? TraceFormat::kChrome
                           : TraceFormat::kJsonl;
  auto tracer = std::make_unique<Tracer>(path, format);
  if (!tracer->ok()) {
    std::fprintf(stderr, "trace: cannot open %s=%s; tracing disabled\n", var,
                 path);
    return nullptr;
  }
  return tracer;
}

uint64_t Tracer::NowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Tracer::Emit(const std::string& event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (format_ == TraceFormat::kChrome) {
    // Comma-separate array elements; a leading newline per event keeps
    // the file diffable without breaking the array.
    if (!first_event_) std::fputs(",", file_);
    first_event_ = false;
    std::fputs("\n", file_);
  }
  std::fwrite(event.data(), 1, event.size(), file_);
  if (format_ == TraceFormat::kJsonl) std::fputs("\n", file_);
}

namespace {

/// Appends `,"key":value` (the key is a fixed identifier, not escaped).
void AppendField(std::string* line, const char* key, uint64_t value) {
  *line += ",\"";
  *line += key;
  *line += "\":";
  *line += std::to_string(value);
}

}  // namespace

void Tracer::WriteSpan(
    const std::string& name, const std::string& label, uint64_t start_us,
    uint64_t dur_us,
    const std::vector<std::pair<std::string, uint64_t>>& fields) {
  if (file_ == nullptr) return;
  std::string line = "{\"name\":";
  AppendJsonString(&line, name);
  if (format_ == TraceFormat::kChrome) {
    // Complete ("X") event: ts/dur in µs, pid fixed, tid = the span's
    // shard so Perfetto lays shards out as tracks. Everything else —
    // the label and the numeric fields — goes under args.
    uint64_t tid = 0;
    for (const auto& [key, value] : fields) {
      if (key == "shard") tid = value;
    }
    line += ",\"cat\":\"nwquery\",\"ph\":\"X\"";
    AppendField(&line, "ts", start_us);
    AppendField(&line, "dur", dur_us);
    AppendField(&line, "pid", 1);
    AppendField(&line, "tid", tid);
    line += ",\"args\":{\"label\":";
    AppendJsonString(&line, label);
    for (const auto& [key, value] : fields) {
      line.push_back(',');
      AppendJsonString(&line, key);
      line += ":" + std::to_string(value);
    }
    line += "}}";
    Emit(line);
    return;
  }
  line += ",\"label\":";
  AppendJsonString(&line, label);
  AppendField(&line, "start_us", start_us);
  AppendField(&line, "dur_us", dur_us);
  for (const auto& [key, value] : fields) {
    line.push_back(',');
    AppendJsonString(&line, key);
    line += ":" + std::to_string(value);
  }
  line.push_back('}');
  Emit(line);
}

void Tracer::WriteCounters(uint64_t shard, const StatsSink& sink) {
  if (file_ == nullptr) return;
  const std::string label = "shard/" + std::to_string(shard);
  std::string line = "{\"name\":";
  if (format_ == TraceFormat::kChrome) {
    // Counter ("C") event: one per shard; Perfetto plots each args key
    // as a series under the counter track named after the shard.
    AppendJsonString(&line, label);
    line += ",\"cat\":\"nwquery\",\"ph\":\"C\"";
    AppendField(&line, "ts", NowUs());
    AppendField(&line, "pid", 1);
    AppendField(&line, "tid", shard);
    line += ",\"args\":{";
  } else {
    // The span schema every JSONL line shares (name, label, start_us,
    // dur_us): a counter sample is a zero-length span at its sample time.
    line += "\"counters\",\"label\":";
    AppendJsonString(&line, label);
    AppendField(&line, "start_us", NowUs());
    AppendField(&line, "dur_us", 0);
    AppendField(&line, "shard", shard);
    line.push_back(',');
  }
  line += "\"docs\":" + std::to_string(sink.engine_docs.value());
  AppendField(&line, "positions", sink.engine_positions.value());
  AppendField(&line, "frozen_hits", sink.frozen_hits.value());
  AppendField(&line, "frozen_misses", sink.frozen_misses.value());
  line += format_ == TraceFormat::kChrome ? "}}" : "}";
  Emit(line);
}

}  // namespace nw
