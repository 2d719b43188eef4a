/**
 * @file
 * The RSSD_SMOKE switch: only a set, non-empty value other than "0"
 * shrinks a bench or example run.
 */

#include <gtest/gtest.h>

#include "bench/smoke.hh"

namespace rssd::bench {
namespace {

TEST(SmokeSwitch, UnsetIsOff)
{
    EXPECT_FALSE(smokeRequested(nullptr));
}

TEST(SmokeSwitch, EmptyIsOff)
{
    EXPECT_FALSE(smokeRequested(""));
}

TEST(SmokeSwitch, ZeroIsOff)
{
    EXPECT_FALSE(smokeRequested("0"));
}

TEST(SmokeSwitch, OneIsOn)
{
    EXPECT_TRUE(smokeRequested("1"));
}

TEST(SmokeSwitch, AnyOtherValueIsOn)
{
    EXPECT_TRUE(smokeRequested("yes"));
}

} // namespace
} // namespace rssd::bench
