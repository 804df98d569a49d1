#include "src/obs/export.h"

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace probcon {
namespace {

TraceLog MakeTrace() {
  TraceLog trace;
  trace.Append({1.5, TraceEventType::kElectionStarted, /*node=*/0, /*peer=*/-1,
                /*value=*/1, ""});
  trace.Append({2.0, TraceEventType::kLeaderElected, 0, -1, 1, ""});
  trace.Append({3.25, TraceEventType::kCommit, 2, -1, 7, "with \"quotes\",\n"});
  return trace;
}

TEST(FormatMetricValueTest, IntegersRenderWithoutTrailingZeros) {
  EXPECT_EQ(FormatMetricValue(42.0), "42");
  EXPECT_EQ(FormatMetricValue(0.5), "0.5");
  EXPECT_EQ(FormatMetricValue(-3.0), "-3");
}

TEST(TraceJsonTest, EmitsAllEventsWithTypedFields) {
  const std::string json = TraceToJson(MakeTrace());
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"election_started\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"leader_elected\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"commit\""), std::string::npos);
  EXPECT_NE(json.find("\"t\": 3.25"), std::string::npos);
  EXPECT_NE(json.find("\"value\": 7"), std::string::npos);
  // The detail string must survive round-trippable escaping.
  EXPECT_NE(json.find("with \\\"quotes\\\",\\n"), std::string::npos);
}

TEST(TraceJsonTest, EmptyTraceIsValidDocument) {
  EXPECT_EQ(TraceToJson(TraceLog()), "{\"events\": [\n]}\n");
}

TEST(TraceCsvTest, HeaderAndQuoting) {
  const std::string csv = TraceToCsv(MakeTrace());
  EXPECT_EQ(csv.find("time,type,node,peer,value,detail\n"), 0u);
  EXPECT_NE(csv.find("1.5,election_started,0,-1,1,"), std::string::npos);
  // RFC-4180: embedded quotes double, field with comma/newline/quote is quoted.
  EXPECT_NE(csv.find("\"with \"\"quotes\"\",\n\""), std::string::npos);
}

TEST(MetricsJsonTest, CountersGaugesHistogramsSections) {
  MetricsRegistry metrics;
  metrics.GetCounter("msgs").Increment(10);
  metrics.GetGauge("load").Set(0.75);
  Histogram& h = metrics.GetHistogram("lat", HistogramOptions::Fixed({1.0, 10.0}));
  h.Record(0.5);
  h.Record(5.0);
  h.Record(50.0);

  const std::string json = MetricsToJson(metrics);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"msgs\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"load\": 0.75"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"le\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"le\": \"inf\""), std::string::npos);
}

TEST(MetricsJsonTest, HistogramSummariesIncludeQuantiles) {
  MetricsRegistry metrics;
  Histogram& h = metrics.GetHistogram("lat", HistogramOptions::Fixed({25.0, 50.0, 100.0}));
  for (int i = 1; i <= 100; ++i) {
    h.Record(static_cast<double>(i));
  }

  const std::string json = MetricsToJson(metrics);
  EXPECT_NE(json.find("\"mean\": 50.5"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p90\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);

  const std::string csv = MetricsToCsv(metrics);
  EXPECT_NE(csv.find("histogram,lat,p50,"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat,p90,"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat,p99,"), std::string::npos);

  // The exported quantiles are the snapshot's, not recomputed divergently.
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_NE(json.find("\"p50\": " + FormatMetricValue(snap.Quantile(0.5))),
            std::string::npos);
}

TEST(MetricsJsonTest, EmptyHistogramOmitsMomentsAndQuantiles) {
  MetricsRegistry metrics;
  metrics.GetHistogram("lat", HistogramOptions::Fixed({1.0}));
  const std::string json = MetricsToJson(metrics);
  EXPECT_NE(json.find("\"count\": 0"), std::string::npos);
  EXPECT_EQ(json.find("\"p50\""), std::string::npos);
  EXPECT_EQ(json.find("\"mean\""), std::string::npos);
  EXPECT_EQ(json.find("\"min\""), std::string::npos);
}

TEST(MetricsToJsonValueTest, MirrorsTheByteExporterStructure) {
  MetricsRegistry metrics;
  metrics.GetCounter("msgs").Increment(10);
  metrics.GetGauge("load").Set(0.75);
  Histogram& h = metrics.GetHistogram("lat", HistogramOptions::Fixed({1.0, 10.0}));
  h.Record(0.5);
  h.Record(5.0);

  const Json value = MetricsToJsonValue(metrics);
  ASSERT_EQ(value.type, Json::Type::kObject);
  const Json* counters = value.Find("counters");
  ASSERT_NE(counters, nullptr);
  const Json* msgs = counters->Find("msgs");
  ASSERT_NE(msgs, nullptr);
  EXPECT_DOUBLE_EQ(msgs->NumberValue(), 10.0);
  const Json* histograms = value.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const Json* lat = histograms->Find("lat");
  ASSERT_NE(lat, nullptr);
  ASSERT_NE(lat->Find("p50"), nullptr);
  ASSERT_NE(lat->Find("buckets"), nullptr);
  EXPECT_EQ(lat->Find("buckets")->items.size(), 3u);
  ASSERT_NE(lat->Find("count"), nullptr);
  EXPECT_DOUBLE_EQ(lat->Find("count")->NumberValue(), 2.0);
}

TEST(MetricsCsvTest, RowPerField) {
  MetricsRegistry metrics;
  metrics.GetCounter("msgs").Increment(3);
  metrics.GetHistogram("lat", HistogramOptions::Fixed({2.0})).Record(1.0);

  const std::string csv = MetricsToCsv(metrics);
  EXPECT_EQ(csv.find("kind,name,field,value\n"), 0u);
  EXPECT_NE(csv.find("counter,msgs,value,3\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat,count,1\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat,bucket_le_2,1\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat,bucket_le_inf,0\n"), std::string::npos);
}

TEST(ExportDeterminismTest, IdenticalInputsSerializeIdentically) {
  MetricsRegistry a;
  MetricsRegistry b;
  for (MetricsRegistry* registry : {&a, &b}) {
    registry->GetCounter("zeta").Increment(2);
    registry->GetCounter("alpha").Increment(1);
    registry->GetHistogram("h", HistogramOptions::Exponential(1.0, 2.0, 4)).Record(3.0);
  }
  EXPECT_EQ(MetricsToJson(a), MetricsToJson(b));
  EXPECT_EQ(MetricsToCsv(a), MetricsToCsv(b));
  const TraceLog trace = MakeTrace();
  EXPECT_EQ(TraceToJson(trace), TraceToJson(MakeTrace()));
}

}  // namespace
}  // namespace probcon
