#include "signal/delay.hpp"

#include <cmath>

#include <gtest/gtest.h>

namespace lumichat::signal {
namespace {

TEST(DelaySignal, IntegerDelayShiftsContent) {
  const Signal x{0, 0, 0, 5, 0, 0, 0};
  const Signal y = delay_signal(x, 2.0);
  EXPECT_DOUBLE_EQ(y[5], 5.0);
  EXPECT_DOUBLE_EQ(y[3], 0.0);
}

TEST(DelaySignal, NegativeDelayAdvancesContent) {
  const Signal x{0, 0, 0, 5, 0, 0, 0};
  const Signal y = delay_signal(x, -2.0);
  EXPECT_DOUBLE_EQ(y[1], 5.0);
}

TEST(DelaySignal, FractionalDelayInterpolates) {
  const Signal x{0, 10, 0};
  const Signal y = delay_signal(x, 0.5);
  EXPECT_NEAR(y[1], 5.0, 1e-12);
  EXPECT_NEAR(y[2], 5.0, 1e-12);
}

TEST(DelaySignal, EdgesReplicate) {
  const Signal x{1, 2, 3};
  const Signal y = delay_signal(x, 2.0);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 1.0);
  EXPECT_DOUBLE_EQ(y[2], 1.0);
}

TEST(DelaySignal, ZeroDelayIsIdentity) {
  const Signal x{3, 1, 4, 1, 5};
  EXPECT_EQ(delay_signal(x, 0.0), x);
}

TEST(DelaySignalChecked, PositiveDelayMarksLeadingRunInvalid) {
  const Signal x{1, 2, 3, 4, 5};
  const DelayedSignal d = delay_signal_checked(x, 2.0);
  EXPECT_EQ(d.samples, delay_signal(x, 2.0));
  EXPECT_EQ(d.valid_begin, 2u);
  EXPECT_EQ(d.valid_end, 5u);
}

TEST(DelaySignalChecked, NegativeDelayMarksTrailingRunInvalid) {
  const Signal x{1, 2, 3, 4, 5};
  const DelayedSignal d = delay_signal_checked(x, -2.0);
  EXPECT_EQ(d.samples, delay_signal(x, -2.0));
  EXPECT_EQ(d.valid_begin, 0u);
  EXPECT_EQ(d.valid_end, 3u);
}

TEST(DelaySignalChecked, ZeroDelayIsFullyValid) {
  const Signal x{1, 2, 3};
  const DelayedSignal d = delay_signal_checked(x, 0.0);
  EXPECT_EQ(d.samples, x);
  EXPECT_EQ(d.valid_begin, 0u);
  EXPECT_EQ(d.valid_end, 3u);
}

TEST(DelaySignalChecked, FractionalDelayRoundsValidRangeInward) {
  // delay 0.5: sample 0 would need x[-0.5] (extrapolated), so validity
  // starts at 1; the last sample interpolates x[3.5] which still exists.
  const Signal x{0, 10, 0, 10, 0};
  const DelayedSignal d = delay_signal_checked(x, 0.5);
  EXPECT_EQ(d.valid_begin, 1u);
  EXPECT_EQ(d.valid_end, 5u);
}

TEST(DelaySignalChecked, WholeSignalShiftedOutIsEmptyRange) {
  const Signal x{1, 2, 3};
  const DelayedSignal d = delay_signal_checked(x, 10.0);
  EXPECT_EQ(d.valid_begin, d.valid_end);
}

TEST(DelaySignalChecked, EmptyInputGivesEmptyRange) {
  const DelayedSignal d = delay_signal_checked({}, 1.0);
  EXPECT_TRUE(d.samples.empty());
  EXPECT_EQ(d.valid_begin, 0u);
  EXPECT_EQ(d.valid_end, 0u);
}

TEST(DelaySignal, RoundTripApproximatelyRestores) {
  Signal x;
  for (int i = 0; i < 60; ++i) x.push_back(std::sin(0.2 * i));
  const Signal y = delay_signal(delay_signal(x, 3.0), -3.0);
  for (std::size_t i = 6; i + 6 < x.size(); ++i) {
    EXPECT_NEAR(y[i], x[i], 1e-9) << "index " << i;
  }
}

}  // namespace
}  // namespace lumichat::signal
