/**
 * @file
 * The InlineFunction capacity rule: a callable the inline buffer cannot
 * hold (too large or over-aligned) is refused at compile time, so every
 * simulator callback is allocation-free by construction. The lint half
 * is scripts/check_invariants.sh rule R5, whose seed schedules an
 * oversized event closure and must fail to compile.
 */

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "sim/inline_function.hh"

using namespace mondrian;

namespace {

using Fn = InlineFunction<int(), 16>;

struct Exact
{
    unsigned char bytes[Fn::kInlineBytes];
    int operator()() const { return bytes[0] + bytes[Fn::kInlineBytes - 1]; }
};

struct TooBig
{
    unsigned char bytes[Fn::kInlineBytes + 1];
    int operator()() const { return 0; }
};

struct alignas(16) OverAligned
{
    int operator()() const { return 0; }
};

template <typename F>
constexpr bool kEmplaceable = requires(Fn g, F f) { g.emplace(std::move(f)); };

} // namespace

TEST(InlineFunction, RefusesCapturesItCannotHoldInline)
{
    EXPECT_FALSE((std::is_constructible_v<Fn, TooBig>));
    EXPECT_FALSE(kEmplaceable<TooBig>);
    EXPECT_FALSE((std::is_constructible_v<Fn, OverAligned>));
    EXPECT_FALSE(kEmplaceable<OverAligned>);

    static_assert(sizeof(Exact) == Fn::kInlineBytes);
    EXPECT_TRUE((std::is_constructible_v<Fn, Exact>));
    EXPECT_TRUE(kEmplaceable<Exact>);

    Exact e{};
    e.bytes[0] = 3;
    e.bytes[Fn::kInlineBytes - 1] = 4;
    Fn f(e);
    EXPECT_EQ(f(), 7);
    Fn moved(std::move(f));
    EXPECT_EQ(moved(), 7);
}
