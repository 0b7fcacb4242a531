#include "core/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string_view>
#include <vector>

#include "util/logging.h"

namespace kpj {
namespace {

/// JSON has no NaN/Inf literals, so non-finite values are written as 0;
/// integral values are written exactly (counts and byte sizes).
void WriteNumber(std::ostream& out, double value) {
  if (!std::isfinite(value)) value = 0.0;
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    out << static_cast<int64_t>(value);
  } else {
    out << value;
  }
}

/// `stat` is a histogram summary name from the registry, unit dropped.
double HistogramStat(const HistogramSnapshot& h, std::string_view stat) {
  if (stat == "count") return static_cast<double>(h.count);
  if (stat == "mean") return h.mean;
  if (stat == "min") return h.min;
  if (stat == "max") return h.max;
  if (stat == "p50") return h.p50;
  if (stat == "p90") return h.p90;
  KPJ_CHECK(stat == "p99") << "unknown histogram summary " << stat;
  return h.p99;
}

void Read(const Counter& live, uint64_t* value) { *value = live.value(); }
void Read(const LatencyHistogram& live, HistogramSnapshot* value) {
  *value = SnapshotOf(live);
}
void Read(const std::array<Counter, kNumPlannableAlgorithms>& live,
          AlgorithmCounts* value) {
  for (size_t a = 0; a < live.size(); ++a) (*value)[a] = live[a].value();
}
template <class Value>
void Read(const NotCounted&, Value*) {}

void Reset(Counter& live) { live.Reset(); }
void Reset(LatencyHistogram& live) { live.Reset(); }
void Reset(std::array<Counter, kNumPlannableAlgorithms>& live) {
  for (Counter& c : live) c.Reset();
}
void Reset(NotCounted&) {}

class JsonWriter {
 public:
  void operator()(const MetricInfo& m, uint64_t value) {
    Key(m.json) << value;
  }
  void operator()(const MetricInfo& m, double value) {
    WriteNumber(Key(m.json), value);
  }
  void operator()(const MetricInfo& m, const HistogramSnapshot& h) {
    size_t prefix = std::strchr(m.json, '{') - m.json;
    for (const std::string& key : JsonKeys(m)) {
      std::string_view stat = std::string_view(key).substr(prefix);
      if (stat.ends_with("_ms")) stat.remove_suffix(3);
      WriteNumber(Key(key), HistogramStat(h, stat));
    }
  }
  void operator()(const MetricInfo& m, const AlgorithmCounts& counts) {
    std::vector<std::string> keys = JsonKeys(m);
    uint64_t total = 0;
    for (size_t i = 0; i < std::size(kAllAlgorithms); ++i) {
      uint64_t count = counts[PlannerIndex(kAllAlgorithms[i])];
      Key(keys[i]) << count;
      total += count;
    }
    Key(keys.back()) << total;
  }

  std::string Finish() {
    out_ << "\n}";
    return out_.str();
  }

 private:
  std::ostream& Key(const std::string& key) {
    out_ << (out_.tellp() == 0 ? "{\n" : ",\n") << "  \"" << key << "\": ";
    return out_;
  }

  std::ostringstream out_;
};

class PromWriter {
 public:
  void operator()(const MetricInfo& m, uint64_t value) {
    out_ << Header(m, "counter") << " " << value << "\n";
  }
  void operator()(const MetricInfo& m, double value) {
    out_ << Header(m, "gauge") << " ";
    WriteNumber(out_, value);
    out_ << "\n";
  }
  void operator()(const MetricInfo& m, const HistogramSnapshot& h) {
    std::string name = Header(m, "histogram");
    uint64_t cumulative = 0;
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      cumulative += h.buckets[b];
      double ub = LatencyHistogram::BucketUpperBoundMs(b);
      out_ << name << "_bucket{le=\"";
      if (std::isinf(ub)) {
        out_ << "+Inf";
      } else {
        out_ << ub;
      }
      out_ << "\"} " << cumulative << "\n";
    }
    out_ << name << "_sum ";
    WriteNumber(out_, h.sum);
    out_ << "\n" << name << "_count " << h.count << "\n";
  }
  void operator()(const MetricInfo& m, const AlgorithmCounts& counts) {
    std::string name = Header(m, "counter");
    for (Algorithm a : kAllAlgorithms) {
      out_ << name << "{algorithm=\"" << AlgorithmName(a) << "\"} "
           << counts[PlannerIndex(a)] << "\n";
    }
  }

  std::string Finish() { return out_.str(); }

 private:
  /// Writes the HELP and TYPE comments; returns the family name.
  std::string Header(const MetricInfo& m, const char* type) {
    std::string name = PromName(m);
    out_ << "# HELP " << name << " " << m.help << "\n"
         << "# TYPE " << name << " " << type << "\n";
    return name;
  }

  std::ostringstream out_;
};

template <class Writer>
std::string Expose(const EngineMetricsSnapshot& s, bool with_server) {
  Writer writer;
  ForEachMetric(s, [&](const MetricInfo& m, const auto& value) {
    if (m.owner != MetricOwner::kServer || with_server) writer(m, value);
  });
  return writer.Finish();
}

}  // namespace

std::string PromName(const MetricInfo& m) {
  if (m.prom[0] != '\0') return m.prom;
  std::string name = std::string("kpj_") + m.field;
  if (m.kind == MetricKind::kCounter || m.kind == MetricKind::kByAlgorithm) {
    name += "_total";
  }
  return name;
}

std::vector<std::string> JsonKeys(const MetricInfo& m) {
  std::vector<std::string> keys;
  if (m.kind == MetricKind::kHistogram) {
    std::string_view spec = m.json;
    size_t open = spec.find('{');
    KPJ_CHECK(open != std::string_view::npos && spec.back() == '}')
        << "histogram " << m.field << " lists no summaries";
    std::string_view list = spec.substr(open + 1, spec.size() - open - 2);
    while (!list.empty()) {
      size_t comma = std::min(list.find(','), list.size());
      keys.push_back(std::string(spec.substr(0, open)) +
                     std::string(list.substr(0, comma)));
      list.remove_prefix(std::min(comma + 1, list.size()));
    }
  } else if (m.kind == MetricKind::kByAlgorithm) {
    for (Algorithm a : kAllAlgorithms) {
      std::string name = AlgorithmName(a);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      keys.push_back(std::string(m.json) + "_" + name);
    }
    keys.push_back(std::string(m.json) + "_total");
  } else {
    keys.push_back(m.json);
  }
  return keys;
}

HistogramSnapshot SnapshotOf(const LatencyHistogram& histogram) {
  HistogramSnapshot h;
  for (size_t b = 0; b < h.buckets.size(); ++b) {
    h.buckets[b] = histogram.bucket_count(b);
  }
  h.count = histogram.count();
  h.sum = histogram.sum_ms();
  h.mean = histogram.Mean();
  h.min = histogram.min_ms();
  h.max = histogram.max_ms();
  h.p50 = histogram.Percentile(50.0);
  h.p90 = histogram.Percentile(90.0);
  h.p99 = histogram.Percentile(99.0);
  return h;
}

template <MetricOwner O>
void LiveMetrics<O>::ReadInto(EngineMetricsSnapshot* s) const {
#define KPJ_METRIC(owner, kind, field, json, prom, help) Read(field, &s->field);
#define KPJ_ALGO_METRIC(kind, field, json, prom, help)
#include "core/metrics.def"
}

template <MetricOwner O>
void LiveMetrics<O>::Reset() {
#define KPJ_METRIC(owner, kind, field, json, prom, help) kpj::Reset(field);
#define KPJ_ALGO_METRIC(kind, field, json, prom, help)
#include "core/metrics.def"
}

template struct LiveMetrics<MetricOwner::kEngine>;
template struct LiveMetrics<MetricOwner::kServer>;

std::string WriteMetricsJson(const EngineMetricsSnapshot& s,
                             bool with_server) {
  return Expose<JsonWriter>(s, with_server);
}

std::string WriteMetricsPrometheus(const EngineMetricsSnapshot& s,
                                   bool with_server) {
  return Expose<PromWriter>(s, with_server);
}

}  // namespace kpj
