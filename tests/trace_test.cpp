// Trace plumbing: the property checkers depend on exactly
// this bookkeeping, so it gets its own unit coverage.
#include <gtest/gtest.h>

#include "sim/trace.h"

namespace wfd {
namespace {

TEST(TraceTest, StatsCountSteps) {
  sim::Trace t;
  t.count_step(false);
  t.count_step(true);
  t.count_step(true);
  EXPECT_EQ(t.stats().steps, 3u);
  EXPECT_EQ(t.stats().lambda_steps, 2u);
}

TEST(TraceTest, StatsCountMessages) {
  sim::Trace t;
  t.count_send();
  t.count_send();
  t.count_delivery();
  EXPECT_EQ(t.stats().messages_sent, 2u);
  EXPECT_EQ(t.stats().messages_delivered, 1u);
}

TEST(TraceTest, SamplesRecordedOnlyWhenEnabled) {
  sim::Trace t;
  fd::FdValue v;
  v.omega = 2;
  t.record_sample(0, 5, v);
  EXPECT_TRUE(t.samples().empty());
  t.set_record_samples(true);
  t.record_sample(1, 6, v);
  ASSERT_EQ(t.samples().size(), 1u);
  EXPECT_EQ(t.samples()[0].p, 1);
  EXPECT_EQ(t.samples()[0].t, 6u);
  EXPECT_EQ(t.samples()[0].value.omega, 2);
}

TEST(TraceTest, EventsOfKindFiltersAndPreservesOrder) {
  sim::Trace t;
  t.record_event(0, 10, "decide", 1);
  t.record_event(1, 20, "commit", 0);
  t.record_event(2, 30, "decide", 1);
  const auto decides = t.events_of_kind("decide");
  ASSERT_EQ(decides.size(), 2u);
  EXPECT_EQ(decides[0].p, 0);
  EXPECT_EQ(decides[1].p, 2);
  EXPECT_TRUE(t.events_of_kind("abort").empty());
}

TEST(TraceTest, FirstEventPerProcess) {
  sim::Trace t;
  t.record_event(1, 20, "decide", 7);
  t.record_event(1, 40, "decide", 8);
  const auto e = t.first_event(1, "decide");
  EXPECT_EQ(e.t, 20u);
  EXPECT_EQ(e.value, 7);
  const auto missing = t.first_event(0, "decide");
  EXPECT_EQ(missing.t, kNever);
}

TEST(FdValueTest, ToStringMentionsComponents) {
  fd::FdValue v;
  v.omega = 3;
  v.sigma = ProcessSet{0, 3};
  v.fs = fd::FsColor::kRed;
  const auto s = v.to_string();
  EXPECT_NE(s.find("omega=3"), std::string::npos);
  EXPECT_NE(s.find("{0,3}"), std::string::npos);
  EXPECT_NE(s.find("red"), std::string::npos);
}

TEST(FdValueTest, PsiValueFactoriesAndEquality) {
  const auto b = fd::PsiValue::bottom();
  EXPECT_EQ(b.mode, fd::PsiValue::Mode::kBottom);
  const auto os = fd::PsiValue::omega_sigma(1, ProcessSet{1, 2});
  EXPECT_EQ(os.mode, fd::PsiValue::Mode::kOmegaSigma);
  EXPECT_EQ(os.omega, 1);
  const auto fs = fd::PsiValue::failure_signal(fd::FsColor::kGreen);
  EXPECT_EQ(fs.mode, fd::PsiValue::Mode::kFs);
  EXPECT_NE(b, os);
  EXPECT_EQ(os, fd::PsiValue::omega_sigma(1, ProcessSet{1, 2}));
}

}  // namespace
}  // namespace wfd
