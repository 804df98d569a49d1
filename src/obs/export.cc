#include "src/obs/export.h"

#include <cstdio>
#include <ostream>
#include <sstream>
#include <utility>

namespace probcon {
namespace {

// CSV field with minimal quoting: wrap in quotes iff the text contains a comma, quote, or
// newline; embedded quotes double per RFC 4180.
std::string CsvEscape(std::string_view text) {
  if (text.find_first_of(",\"\n") == std::string_view::npos) {
    return std::string(text);
  }
  std::string result = "\"";
  for (const char c : text) {
    if (c == '"') {
      result += "\"\"";
    } else {
      result += c;
    }
  }
  result += '"';
  return result;
}

Json HistogramToJsonValue(const Histogram& histogram) {
  const HistogramSnapshot snap = histogram.snapshot();
  Json value = Json::Object();
  value.Set("count", Json::Number(snap.count));
  if (snap.count > 0) {
    value.Set("sum", Json::Number(snap.sum));
    value.Set("min", Json::Number(snap.min));
    value.Set("max", Json::Number(snap.max));
    value.Set("mean", Json::Number(snap.Mean()));
    value.Set("p50", Json::Number(snap.Quantile(0.5)));
    value.Set("p90", Json::Number(snap.Quantile(0.9)));
    value.Set("p99", Json::Number(snap.Quantile(0.99)));
  }
  Json buckets = Json::Array();
  for (size_t i = 0; i < snap.counts.size(); ++i) {
    Json bucket = Json::Object();
    if (i < snap.bounds.size()) {
      bucket.Set("le", Json::Number(snap.bounds[i]));
    } else {
      bucket.Set("le", Json::String("inf"));
    }
    bucket.Set("count", Json::Number(snap.counts[i]));
    buckets.Append(std::move(bucket));
  }
  value.Set("buckets", std::move(buckets));
  return value;
}

}  // namespace

std::string FormatMetricValue(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

void WriteTraceJson(const TraceLog& trace, std::ostream& out) {
  out << "{\"events\": [";
  bool first = true;
  for (const TraceEvent& event : trace.events()) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\n  {\"t\": " << FormatMetricValue(event.time) << ", \"type\": \""
        << TraceEventTypeName(event.type) << "\", \"node\": " << event.node
        << ", \"peer\": " << event.peer << ", \"value\": " << event.value << ", \"detail\": \""
        << JsonEscapeString(event.detail) << "\"}";
  }
  out << "\n]}\n";
}

std::string TraceToJson(const TraceLog& trace) {
  std::ostringstream out;
  WriteTraceJson(trace, out);
  return out.str();
}

void WriteTraceCsv(const TraceLog& trace, std::ostream& out) {
  out << "time,type,node,peer,value,detail\n";
  for (const TraceEvent& event : trace.events()) {
    out << FormatMetricValue(event.time) << "," << TraceEventTypeName(event.type) << ","
        << event.node << "," << event.peer << "," << event.value << ","
        << CsvEscape(event.detail) << "\n";
  }
}

std::string TraceToCsv(const TraceLog& trace) {
  std::ostringstream out;
  WriteTraceCsv(trace, out);
  return out.str();
}

void WriteMetricsJson(const MetricsRegistry& metrics, std::ostream& out) {
  out << WriteJson(MetricsToJsonValue(metrics)) << "\n";
}

std::string MetricsToJson(const MetricsRegistry& metrics) {
  std::ostringstream out;
  WriteMetricsJson(metrics, out);
  return out.str();
}

Json MetricsToJsonValue(const MetricsRegistry& metrics) {
  Json document = Json::Object();
  Json counters = Json::Object();
  for (const auto& [name, counter] : metrics.counters()) {
    counters.Set(name, Json::Number(counter.value()));
  }
  document.Set("counters", std::move(counters));
  Json gauges = Json::Object();
  for (const auto& [name, gauge] : metrics.gauges()) {
    gauges.Set(name, Json::Number(gauge.value()));
  }
  document.Set("gauges", std::move(gauges));
  Json histograms = Json::Object();
  for (const auto& [name, histogram] : metrics.histograms()) {
    histograms.Set(name, HistogramToJsonValue(histogram));
  }
  document.Set("histograms", std::move(histograms));
  return document;
}

void WriteMetricsCsv(const MetricsRegistry& metrics, std::ostream& out) {
  out << "kind,name,field,value\n";
  for (const auto& [name, counter] : metrics.counters()) {
    out << "counter," << CsvEscape(name) << ",value," << counter.value() << "\n";
  }
  for (const auto& [name, gauge] : metrics.gauges()) {
    out << "gauge," << CsvEscape(name) << ",value," << FormatMetricValue(gauge.value())
        << "\n";
  }
  for (const auto& [name, histogram] : metrics.histograms()) {
    const std::string escaped = CsvEscape(name);
    const HistogramSnapshot snap = histogram.snapshot();
    out << "histogram," << escaped << ",count," << snap.count << "\n";
    if (snap.count > 0) {
      out << "histogram," << escaped << ",sum," << FormatMetricValue(snap.sum) << "\n";
      out << "histogram," << escaped << ",min," << FormatMetricValue(snap.min) << "\n";
      out << "histogram," << escaped << ",max," << FormatMetricValue(snap.max) << "\n";
      out << "histogram," << escaped << ",p50," << FormatMetricValue(snap.Quantile(0.5))
          << "\n";
      out << "histogram," << escaped << ",p90," << FormatMetricValue(snap.Quantile(0.9))
          << "\n";
      out << "histogram," << escaped << ",p99," << FormatMetricValue(snap.Quantile(0.99))
          << "\n";
    }
    for (size_t i = 0; i < snap.counts.size(); ++i) {
      out << "histogram," << escaped << ",bucket_le_"
          << (i < snap.bounds.size() ? FormatMetricValue(snap.bounds[i]) : "inf") << ","
          << snap.counts[i] << "\n";
    }
  }
}

std::string MetricsToCsv(const MetricsRegistry& metrics) {
  std::ostringstream out;
  WriteMetricsCsv(metrics, out);
  return out.str();
}

}  // namespace probcon
