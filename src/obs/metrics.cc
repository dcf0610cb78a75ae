#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <thread>

namespace minuet::obs {

namespace {

// Stable per-thread shard index: hash the thread id once, cache it.
size_t ThreadShardSeed() {
  static std::atomic<size_t> next{0};
  thread_local size_t seed = next.fetch_add(1, std::memory_order_relaxed);
  return seed;
}

void AppendNumber(std::string* out, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  *out += buf;
}

void AppendDouble(std::string* out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  *out += buf;
}

}  // namespace

size_t Counter::ShardIndex() { return ThreadShardSeed() % kShards; }

size_t HistogramMetric::ShardIndex() { return ThreadShardSeed() % kShards; }

MetricsRegistry::Entry* MetricsRegistry::Find(const std::string& subsystem,
                                              const std::string& name) {
  for (Entry& e : entries_) {
    if (e.subsystem == subsystem && e.name == name) return &e;
  }
  return nullptr;
}

MetricsRegistry::Entry& MetricsRegistry::Upsert(const std::string& subsystem,
                                                const std::string& name,
                                                Sample::Kind kind) {
  if (Entry* e = Find(subsystem, name)) {
    e->kind = kind;
    e->counter = nullptr;
    e->hist = nullptr;
    e->read = nullptr;
    return *e;
  }
  entries_.push_back(Entry{subsystem, name, kind, nullptr, nullptr, nullptr});
  return entries_.back();
}

void MetricsRegistry::LinkCounter(const std::string& subsystem,
                                  const std::string& name,
                                  const Counter* counter) {
  std::lock_guard<std::mutex> g(mu_);
  Entry& e = Upsert(subsystem, name, Sample::Kind::kCounter);
  e.counter = counter;
}

void MetricsRegistry::LinkHistogram(const std::string& subsystem,
                                    const std::string& name,
                                    const HistogramMetric* hist) {
  std::lock_guard<std::mutex> g(mu_);
  Entry& e = Upsert(subsystem, name, Sample::Kind::kHistogram);
  e.hist = hist;
}

void MetricsRegistry::LinkGauge(const std::string& subsystem,
                                const std::string& name,
                                std::function<int64_t()> read) {
  std::lock_guard<std::mutex> g(mu_);
  Entry& e = Upsert(subsystem, name, Sample::Kind::kGauge);
  e.read = std::move(read);
}

std::vector<Sample> MetricsRegistry::Snapshot() const {
  std::vector<Sample> out;
  {
    std::lock_guard<std::mutex> g(mu_);
    out.reserve(entries_.size());
    for (const Entry& e : entries_) {
      Sample s;
      s.subsystem = e.subsystem;
      s.name = e.name;
      s.kind = e.kind;
      switch (e.kind) {
        case Sample::Kind::kCounter:
          s.value = e.counter ? static_cast<int64_t>(e.counter->Value()) : 0;
          break;
        case Sample::Kind::kGauge:
          if (e.read) s.value = e.read();
          break;
        case Sample::Kind::kHistogram:
          if (e.hist) {
            Histogram h = e.hist->Merged();
            s.count = h.count();
            s.mean = h.mean();
            s.p50 = h.Percentile(50);
            s.p99 = h.Percentile(99);
            s.max = h.max();
          }
          break;
      }
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(), [](const Sample& a, const Sample& b) {
    if (a.subsystem != b.subsystem) return a.subsystem < b.subsystem;
    return a.name < b.name;
  });
  return out;
}

std::string MetricsRegistry::ToText() const {
  std::string out;
  std::string last_subsystem;
  for (const Sample& s : Snapshot()) {
    if (s.subsystem != last_subsystem) {
      out += "[";
      out += s.subsystem;
      out += "]\n";
      last_subsystem = s.subsystem;
    }
    out += "  ";
    out += s.name;
    out += " = ";
    if (s.kind == Sample::Kind::kHistogram) {
      out += "count=";
      AppendNumber(&out, static_cast<int64_t>(s.count));
      out += " mean=";
      AppendDouble(&out, s.mean);
      out += " p50=";
      AppendDouble(&out, s.p50);
      out += " p99=";
      AppendDouble(&out, s.p99);
      out += " max=";
      AppendDouble(&out, s.max);
    } else {
      AppendNumber(&out, s.value);
    }
    out += "\n";
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{";
  std::string last_subsystem;
  bool first_subsystem = true;
  bool first_name = true;
  for (const Sample& s : Snapshot()) {
    if (s.subsystem != last_subsystem || first_subsystem) {
      if (!first_subsystem) out += "},";
      first_subsystem = false;
      AppendJsonString(&out, s.subsystem);
      out += ":{";
      last_subsystem = s.subsystem;
      first_name = true;
    }
    if (!first_name) out += ",";
    first_name = false;
    AppendJsonString(&out, s.name);
    out += ":";
    if (s.kind == Sample::Kind::kHistogram) {
      out += "{\"count\":";
      AppendNumber(&out, static_cast<int64_t>(s.count));
      out += ",\"mean\":";
      AppendDouble(&out, s.mean);
      out += ",\"p50\":";
      AppendDouble(&out, s.p50);
      out += ",\"p99\":";
      AppendDouble(&out, s.p99);
      out += ",\"max\":";
      AppendDouble(&out, s.max);
      out += "}";
    } else {
      AppendNumber(&out, s.value);
    }
  }
  if (!first_subsystem) out += "}";
  out += "}";
  return out;
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> g(mu_);
  return entries_.size();
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
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

}  // namespace minuet::obs
