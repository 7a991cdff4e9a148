#include "obs/tracer.h"

#include <gtest/gtest.h>

#include "obs/obs.h"

namespace lexfor::obs {
namespace {

TEST(ObsTracerTest, DefaultLevelIsOff) {
  Tracer t;
  EXPECT_EQ(t.level(), Level::kOff);
  EXPECT_FALSE(t.enabled(Level::kAudit));
  t.instant(Level::kAudit, "test", "dropped");
  EXPECT_EQ(t.ring().pushed(), 0u);
  EXPECT_EQ(t.ring().size(), 0u);
}

TEST(ObsTracerTest, LevelFilterIsOrdered) {
  Tracer t;
  t.set_level(Level::kInfo);
  EXPECT_TRUE(t.enabled(Level::kAudit));
  EXPECT_TRUE(t.enabled(Level::kInfo));
  EXPECT_FALSE(t.enabled(Level::kDebug));

  t.instant(Level::kDebug, "test", "filtered");
  t.instant(Level::kInfo, "test", "kept");
  EXPECT_EQ(t.ring().pushed(), 1u);
  ASSERT_EQ(t.ring().size(), 1u);
  EXPECT_EQ(t.ring().snapshot()[0].name, "kept");
}

TEST(ObsTracerTest, SpanEmitsMatchedBeginEndPair) {
  Tracer t;
  t.set_level(Level::kInfo);
  {
    const Span s = t.span(Level::kInfo, "test", "work");
    EXPECT_TRUE(s.active());
  }
  const auto events = t.ring().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, Phase::kBegin);
  EXPECT_EQ(events[1].phase, Phase::kEnd);
  EXPECT_EQ(events[0].name, "work");
  EXPECT_EQ(events[1].name, "work");
  EXPECT_NE(events[0].span_id, 0u);
  EXPECT_EQ(events[0].span_id, events[1].span_id);
  // kEnd carries duration_ns in `value`; wall clocks are monotonic.
  EXPECT_GE(events[1].wall_ns, events[0].wall_ns);
  EXPECT_EQ(static_cast<std::uint64_t>(events[1].value),
            events[1].wall_ns - events[0].wall_ns);
}

TEST(ObsTracerTest, NestedSpansCloseInReverseOrder) {
  Tracer t;
  t.set_level(Level::kInfo);
  {
    const Span outer = t.span(Level::kInfo, "test", "outer");
    {
      const Span inner = t.span(Level::kInfo, "test", "inner");
    }
  }
  const auto events = t.ring().snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].phase, Phase::kBegin);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].phase, Phase::kBegin);
  EXPECT_EQ(events[2].name, "inner");
  EXPECT_EQ(events[2].phase, Phase::kEnd);
  EXPECT_EQ(events[3].name, "outer");
  EXPECT_EQ(events[3].phase, Phase::kEnd);
  EXPECT_NE(events[0].span_id, events[1].span_id);
}

TEST(ObsTracerTest, FilteredSpanIsInactiveAndSilent) {
  Tracer t;
  t.set_level(Level::kAudit);
  {
    const Span s = t.span(Level::kInfo, "test", "invisible");
    EXPECT_FALSE(s.active());
  }
  EXPECT_EQ(t.ring().pushed(), 0u);
}

TEST(ObsTracerTest, MovedFromSpanDoesNotDoubleEmit) {
  Tracer t;
  t.set_level(Level::kInfo);
  {
    Span a = t.span(Level::kInfo, "test", "moved");
    const Span b = std::move(a);
    EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(b.active());
  }
  // Exactly one B and one E despite two Span objects having existed.
  EXPECT_EQ(t.ring().pushed(), 2u);
}

TEST(ObsTracerTest, SimTimePropagatesIntoEvents) {
  Tracer t;
  t.set_level(Level::kDebug);
  t.instant(Level::kDebug, "test", "simful", "", SimTime::from_ms(25));
  t.instant(Level::kDebug, "test", "simless");
  const auto events = t.ring().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(events[0].has_sim_time());
  EXPECT_EQ(events[0].sim_us, 25'000);
  EXPECT_FALSE(events[1].has_sim_time());
}

TEST(ObsTracerTest, GlobalTracerDefaultsOffSoMacrosAreNoOps) {
  // The process-wide tracer must be dormant unless a caller opts in;
  // instrumented library code runs under this default in every test.
  ASSERT_EQ(tracer().level(), Level::kOff);
  const std::uint64_t before = tracer().ring().pushed();
  LEXFOR_OBS_EVENT(Level::kAudit, "test", "ignored", "", no_sim_time());
  LEXFOR_OBS_SPAN(Level::kInfo, "test", "ignored", "", no_sim_time());
  EXPECT_EQ(tracer().ring().pushed(), before);
}

}  // namespace
}  // namespace lexfor::obs
