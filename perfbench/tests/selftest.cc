/**
 * @file
 * Self-tests of the benchmark's deterministic parts: seeded schedules
 * and input pools, the tail-percentile rule, the nearest-rank
 * percentile, and the output-correctness gate.
 *
 *   python3 perfbench/run.py --selftest
 */

#include <cstring>

#include <gtest/gtest.h>

#include "engine/engine.hh"
#include "perfbench.hh"

using namespace perfbench;
using namespace vitdyn;

namespace
{

bool
sameSchedule(const std::vector<Arrival> &a, const std::vector<Arrival> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].dueMs != b[i].dueMs || a[i].tenant != b[i].tenant ||
            a[i].image != b[i].image)
            return false;
    return true;
}

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

} // namespace

TEST(Schedule, SameSeedSameArrivals)
{
    EXPECT_TRUE(sameSchedule(makeSchedule(90.0, 7, 5.0, 15, 8),
                             makeSchedule(90.0, 7, 5.0, 15, 8)));
    EXPECT_FALSE(sameSchedule(makeSchedule(90.0, 7, 5.0, 15, 8),
                              makeSchedule(90.0, 8, 5.0, 15, 8)));
}

TEST(Schedule, FixedLoadSortedAndDealtInRounds)
{
    const std::vector<Arrival> s = makeSchedule(90.0, 3, 10.0, 15, 8);
    ASSERT_EQ(s.size(), 900u); // Poisson conditioned on its count
    for (size_t i = 1; i < s.size(); ++i)
        EXPECT_LE(s[i - 1].dueMs, s[i].dueMs);
    EXPECT_GE(s.front().dueMs, 0.0);
    EXPECT_LT(s.back().dueMs, 10000.0);
    // Every round of 15 arrivals visits each tenant exactly once.
    for (size_t round = 0; round + 15 <= s.size(); round += 15) {
        std::vector<int> seen(15, 0);
        for (size_t i = round; i < round + 15; ++i)
            ++seen[s[i].tenant];
        for (int count : seen)
            EXPECT_EQ(count, 1);
    }
}

TEST(InputPool, SameSeedSameImages)
{
    const FamilySpec spec = familySpec("seg64");
    const std::vector<Tensor> a = makeInputPool(spec, 3, 11);
    const std::vector<Tensor> b = makeInputPool(spec, 3, 11);
    const std::vector<Tensor> c = makeInputPool(spec, 3, 12);
    ASSERT_EQ(a.size(), 3u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].shape(), (Shape{1, 3, 64, 64}));
        EXPECT_TRUE(sameBits(a[i], b[i]));
        EXPECT_FALSE(sameBits(a[i], c[i]));
    }
}

TEST(Stats, Median)
{
    EXPECT_EQ(median({}), 0.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Stats, TailIsHighestPercentileWithTenBeyond)
{
    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i)
        hundred.push_back(i);
    Tail t = tailOf(hundred);
    EXPECT_EQ(t.value, 90.0);
    EXPECT_DOUBLE_EQ(t.percentile, 90.0);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_EQ(t.samples, 100u);

    std::vector<double> thousand;
    for (int i = 1; i <= 1000; ++i)
        thousand.push_back(i);
    t = tailOf(thousand);
    EXPECT_EQ(t.value, 990.0);
    EXPECT_DOUBLE_EQ(t.percentile, 99.0);
    EXPECT_EQ(t.beyond, 10u);

    // Eleven samples: the smallest is the only value with ten beyond.
    t = tailOf({5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 1});
    EXPECT_EQ(t.value, 1.0);
    EXPECT_EQ(t.beyond, 10u);
}

TEST(Stats, TailOfSmallOrTiedSamples)
{
    Tail t = tailOf({4.0, 2.0, 9.0});
    EXPECT_EQ(t.value, 9.0); // too few: the maximum, nothing beyond
    EXPECT_EQ(t.beyond, 0u);
    EXPECT_EQ(t.samples, 3u);
    EXPECT_EQ(tailOf({}).samples, 0u);

    // Ties with the tail value do not count as beyond it.
    std::vector<double> tied(20, 1.0);
    for (size_t i = 15; i < 20; ++i)
        tied[i] = 2.0;
    t = tailOf(tied);
    EXPECT_EQ(t.value, 1.0);
    EXPECT_EQ(t.beyond, 5u);
}

TEST(Stats, NearestRankPercentile)
{
    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i)
        hundred.push_back(i);
    EXPECT_EQ(percentile(hundred, 99.0), 99.0);
    EXPECT_EQ(percentile(hundred, 50.0), 50.0);
    EXPECT_EQ(percentile(hundred, 100.0), 100.0);
    EXPECT_EQ(percentile(hundred, 0.1), 1.0);
    // 240 samples: p99 is rank ceil(237.6) = 238, not the tail rule's
    // rank 230.
    std::vector<double> many;
    for (int i = 1; i <= 240; ++i)
        many.push_back(i);
    EXPECT_EQ(percentile(many, 99.0), 238.0);
    EXPECT_EQ(tailOf(many).value, 230.0);
    EXPECT_EQ(percentile({}, 99.0), 0.0);
    EXPECT_EQ(percentile({3.5}, 99.0), 3.5);
}

class Gate : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        spec_ = familySpec("seg64");
        lut_ = sweepLut(spec_);
        pool_ = makeInputPool(spec_, 2, 1);
        refs_ = computeReferences(spec_, lut_, pool_);
    }

    FamilySpec spec_;
    AccuracyResourceLut lut_;
    std::vector<Tensor> pool_;
    ReferenceTable refs_;
};

TEST_F(Gate, EngineOutputsMatchTheIndependentReference)
{
    ASSERT_EQ(refs_.size(), 2 * lut_.entries().size());
    DrtEngine engine(spec_.family, spec_.seg, spec_.swin, lut_,
                     kWeightSeed);
    for (const LutEntry &entry : lut_.entries())
        for (size_t i = 0; i < pool_.size(); ++i) {
            Result<DrtResult> r =
                engine.tryInfer(pool_[i], entry.resourceCost);
            ASSERT_TRUE(r.isOk()) << r.status().message();
            EXPECT_EQ(r.value().configLabel, entry.config.label);
            EXPECT_TRUE(refs_.check(i, r.value().configLabel,
                                    r.value().output)
                            .isOk());
        }
}

TEST_F(Gate, RejectsACorruptedOutput)
{
    DrtEngine engine(spec_.family, spec_.seg, spec_.swin, lut_,
                     kWeightSeed);
    const LutEntry &full = lut_.best();
    Result<DrtResult> r = engine.tryInfer(pool_[0], full.resourceCost);
    ASSERT_TRUE(r.isOk());
    Tensor output = r.value().output;
    ASSERT_TRUE(refs_.check(0, full.config.label, output).isOk());

    // One flipped low mantissa bit is a wrong output.
    uint32_t bits = 0;
    std::memcpy(&bits, output.data() + 17, sizeof bits);
    bits ^= 1u;
    std::memcpy(output.data() + 17, &bits, sizeof bits);
    const Status verdict = refs_.check(0, full.config.label, output);
    EXPECT_FALSE(verdict.isOk());
    EXPECT_NE(verdict.message().find("mismatch"), std::string::npos);

    // A correct tensor reported under another config or image fails
    // too, and so does an image the table never saw.
    const Tensor &good = r.value().output;
    EXPECT_FALSE(refs_.check(0, lut_.cheapest().config.label, good).isOk());
    EXPECT_FALSE(refs_.check(1, full.config.label, good).isOk());
    EXPECT_FALSE(refs_.check(9, full.config.label, good).isOk());
}
