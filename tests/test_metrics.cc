/**
 * @file
 * Tests of the observability layer: the sharded metrics registry, the
 * exposition formats, scoped tracing, and run manifests (DESIGN.md
 * section 10).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/metrics.hh"
#include "support/parallel.hh"
#include "support/tracing.hh"

namespace
{

using namespace rhmd::support;

// Death tests first, before any test spawns a pool, so the gtest
// fork happens while the process is still single-threaded.
TEST(RegistryDeath, KindMismatchPanics)
{
    MetricsRegistry reg;
    reg.counter("demo.clash", "a counter");
    EXPECT_DEATH(reg.gauge("demo.clash", "now a gauge"), "re-registered");
}

TEST(RegistryDeath, BadNamePanics)
{
    MetricsRegistry reg;
    EXPECT_DEATH(reg.counter("Demo.Bad", "uppercase"), "bad metric name");
}

TEST(RegistryDeath, HistogramBucketMismatchPanics)
{
    MetricsRegistry reg;
    reg.histogram("demo.hist", "a histogram", {1.0, 2.0});
    EXPECT_DEATH(reg.histogram("demo.hist", "a histogram", {1.0, 3.0}),
                 "different buckets");
}

TEST(SpanDeath, SlashInNamePanics)
{
    EXPECT_DEATH(ScopedSpan span("a/b"), "must not contain");
}

TEST(SpanDeath, EmptyNamePanics)
{
    EXPECT_DEATH(ScopedSpan span(""), "non-empty");
}

TEST(FormatMetricValue, IntegerValuedPrintsNoFraction)
{
    EXPECT_EQ(formatMetricValue(0.0), "0");
    EXPECT_EQ(formatMetricValue(42.0), "42");
    EXPECT_EQ(formatMetricValue(-3.0), "-3");
    EXPECT_EQ(formatMetricValue(0.25), "0.25");
    EXPECT_EQ(formatMetricValue(2.5), "2.5");
}

TEST(JsonEscape, EscapesControlAndQuote)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(Counter, RegistrationIsIdempotent)
{
    MetricsRegistry reg;
    Counter &a = reg.counter("demo.events", "events");
    Counter &b = reg.counter("demo.events", "events");
    EXPECT_EQ(&a, &b);
    a.add(2);
    b.add(3);
    EXPECT_EQ(a.value(), 5u);
    EXPECT_EQ(reg.counterValue("demo.events"), 5u);
    EXPECT_EQ(reg.counterValue("demo.absent"), 0u);
}

TEST(Counter, ResetKeepsRegistration)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("demo.events", "events");
    c.add(7);
    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(&reg.counter("demo.events", "events"), &c);
}

TEST(Gauge, UpdateMaxKeepsTheLargest)
{
    MetricsRegistry reg;
    Gauge &g = reg.gauge("demo.depth", "queue depth");
    g.updateMax(2.5);
    EXPECT_EQ(g.value(), 2.5);
    g.updateMax(1.0);
    EXPECT_EQ(g.value(), 2.5);
    g.updateMax(4.0);
    EXPECT_EQ(g.value(), 4.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    MetricsRegistry reg;
    Histogram &h =
        reg.histogram("demo.pick", "pick index", {0.0, 1.0, 2.0});
    h.observe(0.0);
    h.observe(1.0);
    h.observe(1.0);
    h.observe(5.0);  // Overflow bucket.
    const std::vector<std::uint64_t> counts = h.bucketCounts();
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts[0], 1u);
    EXPECT_EQ(counts[1], 2u);
    EXPECT_EQ(counts[2], 0u);
    EXPECT_EQ(counts[3], 1u);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 7.0);
}

// The core of the determinism contract: values merged over the
// thread-sharded storage must not depend on the worker count. Run
// the identical integer-valued workload through a serial and a
// 4-thread pool and require the merged values — and the serialized
// deterministic snapshot — to be byte-identical.
TEST(MergeDeterminism, CounterAndHistogramAcrossThreadCounts)
{
    constexpr std::size_t kTasks = 512;

    const auto run = [](std::size_t threads) {
        MetricsRegistry reg;
        Counter &events = reg.counter("demo.events", "events");
        Histogram &picks =
            reg.histogram("demo.pick", "pick index", {0.0, 1.0, 2.0});
        ThreadPool pool(threads);
        pool.forEach(kTasks, [&](std::size_t i) {
            events.add(i % 3);
            picks.observe(static_cast<double>(i % 4));
        });
        return reg.toJsonArray(/*include_timing=*/false);
    };

    const std::string serial = run(1);
    const std::string parallel = run(4);
    EXPECT_EQ(serial, parallel);
    // And the merged values themselves are the arithmetic totals.
    EXPECT_NE(serial.find("\"value\": 511"), std::string::npos)
        << serial;  // sum of i % 3 over [0, 512)
    EXPECT_NE(serial.find("\"count\": 512"), std::string::npos)
        << serial;
}

TEST(Exposition, GoldenPrometheus)
{
    MetricsRegistry reg;
    reg.counter("demo.events", "events observed").add(3);
    reg.gauge("demo.depth", "queue depth").updateMax(2.5);
    Histogram &h =
        reg.histogram("demo.pick", "pick index", {0.0, 1.0, 2.0});
    h.observe(0.0);
    h.observe(1.0);
    h.observe(1.0);
    h.observe(5.0);

    EXPECT_EQ(reg.toPrometheus(),
              "# HELP rhmd_demo_depth queue depth\n"
              "# TYPE rhmd_demo_depth gauge\n"
              "rhmd_demo_depth 2.5\n"
              "# HELP rhmd_demo_events events observed\n"
              "# TYPE rhmd_demo_events counter\n"
              "rhmd_demo_events 3\n"
              "# HELP rhmd_demo_pick pick index\n"
              "# TYPE rhmd_demo_pick histogram\n"
              "rhmd_demo_pick_bucket{le=\"0\"} 1\n"
              "rhmd_demo_pick_bucket{le=\"1\"} 3\n"
              "rhmd_demo_pick_bucket{le=\"2\"} 3\n"
              "rhmd_demo_pick_bucket{le=\"+Inf\"} 4\n"
              "rhmd_demo_pick_sum 7\n"
              "rhmd_demo_pick_count 4\n");
}

TEST(Exposition, GoldenJsonStripsTimingDomain)
{
    MetricsRegistry reg;
    reg.counter("demo.events", "events").add(3);
    // Gauges default to the Timing domain: stripped when the
    // deterministic view is requested.
    reg.gauge("demo.depth", "queue depth").updateMax(2.5);

    EXPECT_EQ(reg.toJsonArray(/*include_timing=*/false),
              "[\n"
              "    {\"name\": \"demo.events\", "
              "\"domain\": \"deterministic\", "
              "\"kind\": \"counter\", \"value\": 3}\n"
              "  ]");
    EXPECT_EQ(reg.toJsonArray(/*include_timing=*/true),
              "[\n"
              "    {\"name\": \"demo.depth\", "
              "\"domain\": \"timing\", "
              "\"kind\": \"gauge\", \"value\": 2.5},\n"
              "    {\"name\": \"demo.events\", "
              "\"domain\": \"deterministic\", "
              "\"kind\": \"counter\", \"value\": 3}\n"
              "  ]");
}

TEST(Exposition, EmptyRegistry)
{
    const MetricsRegistry reg;
    EXPECT_EQ(reg.toPrometheus(), "");
    EXPECT_EQ(reg.toJsonArray(), "[]");
}

TEST(Spans, NestedScopesAggregateBySlashPath)
{
    TraceRegistry::instance().reset();
    {
        ScopedSpan outer("outer");
        for (int i = 0; i < 3; ++i) {
            ScopedSpan inner("inner");
        }
    }
    const auto spans = TraceRegistry::instance().snapshot();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans.at("outer").count, 1u);
    EXPECT_EQ(spans.at("outer/inner").count, 3u);
    EXPECT_GE(spans.at("outer").seconds,
              spans.at("outer/inner").seconds);
    TraceRegistry::instance().reset();
}

TEST(Spans, WorkerThreadsRootTheirOwnStacks)
{
    TraceRegistry::instance().reset();
    ThreadPool pool(4);
    pool.forEach(16, [](std::size_t) {
        ScopedSpan span("task");
    });
    const auto spans = TraceRegistry::instance().snapshot();
    // Worker stacks are thread-local, so the span roots at "task"
    // (never under some other thread's open span) and all 16
    // bodies aggregate into the one path.
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans.at("task").count, 16u);
    TraceRegistry::instance().reset();
}

TEST(Manifest, GoldenJson)
{
    RunManifest manifest;
    manifest.tool = "demo";
    manifest.seed = 7;
    manifest.threads = 3;
    manifest.smoke = true;
    manifest.gitDescribe = "v1-g0000000";
    manifest.addConfig("epochs", "200");
    manifest.addConfig("policy", "uniform");
    EXPECT_EQ(manifest.toJson(),
              "{\"tool\": \"demo\", \"seed\": 7, \"threads\": 3, "
              "\"smoke\": true, \"git\": \"v1-g0000000\", "
              "\"config\": {\"epochs\": \"200\", "
              "\"policy\": \"uniform\"}}");
}

TEST(Manifest, StampsBuildGitDescribe)
{
    // The configure-time stamp is baked into the default constructor
    // so every snapshot is attributable to a source revision.
    const RunManifest manifest;
    EXPECT_STRNE(buildGitDescribe(), "");
    EXPECT_EQ(manifest.gitDescribe, buildGitDescribe());
}

TEST(Snapshot, ObservabilityJsonShape)
{
    RunManifest manifest;
    manifest.tool = "demo";
    const std::string timing = observabilityJson(manifest, true);
    EXPECT_NE(timing.find("\"manifest\": {"), std::string::npos);
    EXPECT_NE(timing.find("\"metrics\": ["), std::string::npos);
    EXPECT_NE(timing.find("\"spans\": ["), std::string::npos);
    // The deterministic form drops the span tree wholesale.
    const std::string det = observabilityJson(manifest, false);
    EXPECT_EQ(det.find("\"spans\""), std::string::npos);
}

TEST(Snapshot, WriteProducesJsonAndProm)
{
    RunManifest manifest;
    manifest.tool = "demo";
    const std::string dir = ::testing::TempDir();
    ASSERT_TRUE(writeObservabilitySnapshot(dir, "unit", manifest));
    for (const char *ext : {".json", ".prom"}) {
        std::ifstream in(dir + "/METRICS_unit" + ext);
        ASSERT_TRUE(in.good()) << ext;
        std::ostringstream content;
        content << in.rdbuf();
        EXPECT_FALSE(content.str().empty()) << ext;
    }
    std::ifstream in(dir + "/METRICS_unit.json");
    std::ostringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("\"tool\": \"demo\""),
              std::string::npos);
}

TEST(Snapshot, WriteFailsCleanlyOnBadDir)
{
    const RunManifest manifest;
    EXPECT_FALSE(writeObservabilitySnapshot(
        "/nonexistent-rhmd-metrics-dir", "unit", manifest));
}

} // namespace
