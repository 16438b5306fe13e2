/**
 * @file
 * Tests of the recoverable-error layer: Status, StatusOr, and
 * retry-with-backoff.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/retry.hh"
#include "support/status.hh"

namespace
{

using namespace rhmd::support;

TEST(Status, DefaultIsOk)
{
    Status status;
    EXPECT_TRUE(status.isOk());
    EXPECT_EQ(status.code(), StatusCode::Ok);
    EXPECT_EQ(status.toString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage)
{
    const Status status = dataLossError("lost ", 3, " windows");
    EXPECT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), StatusCode::DataLoss);
    EXPECT_EQ(status.message(), "lost 3 windows");
    EXPECT_EQ(status.toString(), "DATA_LOSS: lost 3 windows");
}

TEST(Status, EveryCodeHasAName)
{
    for (StatusCode code :
         {StatusCode::Ok, StatusCode::InvalidArgument,
          StatusCode::DataLoss, StatusCode::FailedPrecondition,
          StatusCode::Unavailable, StatusCode::Internal}) {
        EXPECT_FALSE(statusCodeName(code).empty());
    }
}

TEST(StatusOr, HoldsValue)
{
    StatusOr<int> result(42);
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value(), 42);
    EXPECT_EQ(*result, 42);
}

TEST(StatusOr, HoldsError)
{
    StatusOr<int> result = unavailableError("sensor glitch");
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::Unavailable);
}

TEST(StatusOr, MovesValueOut)
{
    StatusOr<std::vector<int>> result(std::vector<int>{1, 2, 3});
    const std::vector<int> moved = std::move(result).value();
    EXPECT_EQ(moved.size(), 3u);
}

TEST(Retry, BackoffGrowsExponentiallyAndCaps)
{
    // Doubling per retry (kBackoffMultiplier), capped at kMaxBackoff.
    RetryPolicy policy;
    policy.initialBackoff = 1.0;
    EXPECT_DOUBLE_EQ(backoffDelay(policy, 1), 1.0);
    EXPECT_DOUBLE_EQ(backoffDelay(policy, 2), 2.0);
    EXPECT_DOUBLE_EQ(backoffDelay(policy, 3), 4.0);
    EXPECT_DOUBLE_EQ(backoffDelay(policy, 7), 64.0);
    EXPECT_DOUBLE_EQ(backoffDelay(policy, 8), 64.0);
}

TEST(Retry, SucceedsAfterTransientFailures)
{
    RetryPolicy policy;
    policy.maxAttempts = 5;
    int calls = 0;
    RetryStats stats;
    auto result = retryWithBackoff(
        policy,
        [&]() -> StatusOr<int> {
            if (++calls < 3)
                return unavailableError("transient");
            return 7;
        },
        &stats);
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(*result, 7);
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(stats.retries, 2u);
    EXPECT_DOUBLE_EQ(stats.backoffSpent, 1.0 + 2.0);
}

TEST(Retry, ExhaustsAttemptBudget)
{
    RetryPolicy policy;
    policy.maxAttempts = 3;
    int calls = 0;
    auto result = retryWithBackoff(policy, [&]() -> StatusOr<int> {
        ++calls;
        return unavailableError("still down");
    });
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::Unavailable);
    EXPECT_EQ(calls, 3);
}

TEST(Retry, NonTransientErrorsAreNotRetried)
{
    RetryPolicy policy;
    policy.maxAttempts = 5;
    int calls = 0;
    auto result = retryWithBackoff(policy, [&]() -> StatusOr<int> {
        ++calls;
        return dataLossError("corrupt");
    });
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::DataLoss);
    EXPECT_EQ(calls, 1);
}

TEST(Retry, WorksWithPlainStatus)
{
    RetryPolicy policy;
    policy.maxAttempts = 4;
    int calls = 0;
    const Status status = retryWithBackoff(policy, [&]() -> Status {
        if (++calls < 2)
            return unavailableError("transient");
        return {};
    });
    EXPECT_TRUE(status.isOk());
    EXPECT_EQ(calls, 2);
}

TEST(Retry, NonTransientErrorNeverSleepsOrCountsRetries)
{
    // The short-circuit must happen before any backoff bookkeeping:
    // a permanent error costs one attempt, zero waiting.
    RetryPolicy policy;
    policy.maxAttempts = 5;
    int calls = 0;
    RetryStats stats;
    auto result = retryWithBackoff(
        policy,
        [&]() -> StatusOr<int> {
            ++calls;
            return invalidArgumentError("bad request");
        },
        &stats);
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(stats.retries, 0u);
    EXPECT_DOUBLE_EQ(stats.backoffSpent, 0.0);
}

TEST(Retry, BackoffCapBoundsEveryWait)
{
    // With a large first backoff the cap dominates the schedule:
    // 24, 48, then 64 forever.
    RetryPolicy policy;
    policy.maxAttempts = 6;
    policy.initialBackoff = 24.0;
    const std::vector<double> expected{24.0, 48.0, 64.0, 64.0, 64.0};
    for (std::size_t retry = 1; retry <= expected.size(); ++retry)
        EXPECT_DOUBLE_EQ(backoffDelay(policy, retry), expected[retry - 1]);
    RetryStats stats;
    retryWithBackoff(
        policy, [&]() -> Status { return unavailableError("down"); },
        &stats);
    EXPECT_EQ(stats.retries, expected.size());
    EXPECT_DOUBLE_EQ(stats.backoffSpent, 24.0 + 48.0 + 64.0 * 3);
}

TEST(Retry, StatsAccumulateAcrossCalls)
{
    // One RetryStats threads through a whole deployment run; each
    // retried call adds to it instead of resetting it.
    RetryPolicy policy;
    policy.maxAttempts = 3;
    RetryStats stats;
    for (int round = 0; round < 2; ++round) {
        int calls = 0;
        retryWithBackoff(
            policy,
            [&]() -> Status {
                if (++calls < 3)
                    return unavailableError("transient");
                return {};
            },
            &stats);
    }
    EXPECT_EQ(stats.retries, 4u);
    EXPECT_DOUBLE_EQ(stats.backoffSpent, 2 * (1.0 + 2.0));
}

} // namespace
