// Trace and metrics exporters: JSON (one self-contained document) and CSV (one row per
// event / instrument reading).
//
// Output is deterministic: instruments are emitted in registry (name) order, events in
// append order, and all doubles are formatted with a fixed "%.9g" so identical runs yield
// byte-identical files. That property is what lets tests diff whole exports.

#ifndef PROBCON_SRC_OBS_EXPORT_H_
#define PROBCON_SRC_OBS_EXPORT_H_

#include <iosfwd>
#include <string>

#include "src/common/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace probcon {

// "%.9g" formatting, shared by every exporter (and RunReport) for determinism.
std::string FormatMetricValue(double value);

// {"events": [{"t": ..., "type": "...", "node": ..., "peer": ..., "value": ..., "detail":
// "..."}, ...]}
void WriteTraceJson(const TraceLog& trace, std::ostream& out);
std::string TraceToJson(const TraceLog& trace);

// Header "time,type,node,peer,value,detail"; detail is double-quote escaped.
void WriteTraceCsv(const TraceLog& trace, std::ostream& out);
std::string TraceToCsv(const TraceLog& trace);

// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum, min, max, mean,
// p50, p90, p99, buckets: [{"le": bound-or-"inf", "count": n}, ...]}}}. The quantiles are
// interpolated from bucket counts (HistogramSnapshot::Quantile) and omitted, like the other
// moments, when the histogram is empty.
void WriteMetricsJson(const MetricsRegistry& metrics, std::ostream& out);
std::string MetricsToJson(const MetricsRegistry& metrics);

// Same document as WriteMetricsJson, but as a Json value — for embedding inside a larger
// document (the serve `stats` verb nests it in a response envelope). Doubles go through
// FormatDouble (shortest round-trip) rather than "%.9g", per the wire-format convention.
Json MetricsToJsonValue(const MetricsRegistry& metrics);

// Header "kind,name,field,value"; histograms expand to count/sum/min/max/p50/p90/p99 plus
// one "bucket_le_<bound>" row per bucket.
void WriteMetricsCsv(const MetricsRegistry& metrics, std::ostream& out);
std::string MetricsToCsv(const MetricsRegistry& metrics);

}  // namespace probcon

#endif  // PROBCON_SRC_OBS_EXPORT_H_
