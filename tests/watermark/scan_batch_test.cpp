// ScanBatch: deterministic multi-flow fan-out.
//
// The contract under test: slot i of the output always answers job i
// with bits identical to running the job alone, whatever the width; error jobs (null kernel, short series) fill their slot without
// aborting the batch; and the watermark.scan.* obs instruments account
// for exactly the work done.  Jobs that scan one series form a family
// and run as one family scan; the Family* cases hold every slot of such
// a scan to the naive reference for its own code, bit for bit.

#include "watermark/scan_batch.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "obs/obs.h"
#include "oracles/naive_scan.h"
#include "util/rng.h"
#include "watermark/gold_code.h"

namespace lexfor::watermark {
namespace {

struct Flow {
  std::vector<double> rates;
  std::size_t true_offset = 0;
};

Flow marked_flow(const PnCode& code, std::size_t offset, double noise_sigma,
                 Rng& rng) {
  Flow f;
  f.true_offset = offset;
  for (std::size_t i = 0; i < offset; ++i) {
    f.rates.push_back(100.0 + rng.normal(0.0, noise_sigma));
  }
  for (const auto c : code.chips()) {
    f.rates.push_back(100.0 * (1.0 + 0.3 * c) + rng.normal(0.0, noise_sigma));
  }
  for (int i = 0; i < 10; ++i) {
    f.rates.push_back(100.0 + rng.normal(0.0, noise_sigma));
  }
  return f;
}

TEST(ScanBatchTest, DeterministicOrderingAcrossPoolSizes) {
  Rng rng{71};
  const auto code = PnCode::m_sequence(9).value();
  const CorrelationKernel kernel(code, 5.0);

  std::vector<Flow> flows;
  for (std::size_t i = 0; i < 12; ++i) {
    flows.push_back(marked_flow(code, 3 * i, 5.0, rng));
  }
  std::vector<ScanJob> jobs(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    jobs[i].kernel = &kernel;
    jobs[i].rates = std::span<const double>(flows[i].rates);
    jobs[i].max_offset = 64;
  }

  // Serial ground truth straight from the kernel.
  std::vector<ScanResult> expected;
  for (const auto& job : jobs) {
    expected.push_back(kernel.scan(job.rates, job.max_offset).value());
  }

  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    const ScanBatch batch(ScanBatchOptions{threads});
    const auto results = batch.run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << "threads=" << threads << " job " << i;
      const auto& got = results[i].value();
      // Slot i answers job i: the recovered offset is job i's embed
      // offset, not some other flow's.
      EXPECT_EQ(got.offset, flows[i].true_offset)
          << "threads=" << threads << " job " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.best.correlation),
                std::bit_cast<std::uint64_t>(expected[i].best.correlation))
          << "threads=" << threads << " job " << i;
      EXPECT_EQ(got.best.detected, expected[i].best.detected);
    }
  }
}

TEST(ScanBatchTest, EachSlotMatchesTheReferenceForItsOwnFlow) {
  // Slot i against the naive reference scan of flow i, bit for bit.
  // The max_offset clamp leaves flow i 11·i + 12 offsets: full blocks
  // of either width plus tails of several lengths.
  Rng rng{83};
  const auto code = PnCode::m_sequence(9).value();
  const CorrelationKernel kernel(code);
  std::vector<Flow> flows;
  for (std::size_t i = 0; i < 6; ++i) {
    flows.push_back(marked_flow(code, 11 * i + 1, 12.0, rng));
  }
  std::vector<ScanJob> jobs(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    jobs[i].kernel = &kernel;
    jobs[i].rates = std::span<const double>(flows[i].rates);
    jobs[i].max_offset = 64;
  }
  for (const unsigned threads : {1u, 2u}) {
    const ScanBatch batch(ScanBatchOptions{threads});
    const auto results = batch.run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << "threads=" << threads << " job " << i;
      const auto& got = results[i].value();
      const auto want =
          oracles::naive_scan(code, flows[i].rates, 64).value();
      EXPECT_EQ(got.offset, flows[i].true_offset);
      EXPECT_EQ(got.offset, want.offset);
      EXPECT_EQ(got.best.detected, want.best.detected);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.best.correlation),
                std::bit_cast<std::uint64_t>(want.best.correlation))
          << "threads=" << threads << " job " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.best.threshold),
                std::bit_cast<std::uint64_t>(want.best.threshold));
    }
  }
}

TEST(ScanBatchTest, RepeatedRunsAreIdentical) {
  Rng rng{73};
  const auto code = PnCode::m_sequence(7).value();
  const CorrelationKernel kernel(code, 4.0);
  std::vector<Flow> flows;
  for (std::size_t i = 0; i < 32; ++i) {
    flows.push_back(marked_flow(code, i, 15.0, rng));
  }
  std::vector<ScanJob> jobs(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    jobs[i].kernel = &kernel;
    jobs[i].rates = std::span<const double>(flows[i].rates);
    jobs[i].max_offset = 40;
  }
  const ScanBatch batch;  // default: hardware concurrency
  const auto first = batch.run(jobs);
  const auto second = batch.run(jobs);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_TRUE(first[i].ok());
    ASSERT_TRUE(second[i].ok());
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(first[i].value().best.correlation),
        std::bit_cast<std::uint64_t>(second[i].value().best.correlation));
    EXPECT_EQ(first[i].value().offset, second[i].value().offset);
  }
}

TEST(ScanBatchTest, EmptyBatchReturnsEmpty) {
  const ScanBatch batch;
  const auto results = batch.run({});
  EXPECT_TRUE(results.empty());
}

TEST(ScanBatchTest, NullKernelAndShortFlowFillTheirSlotsWithoutAborting) {
  Rng rng{77};
  const auto code = PnCode::m_sequence(7).value();
  const CorrelationKernel kernel(code, 5.0);
  const auto good = marked_flow(code, 4, 5.0, rng);
  const std::vector<double> too_short(code.length() / 2, 100.0);

  std::vector<ScanJob> jobs(3);
  jobs[0].kernel = nullptr;  // null kernel: error slot
  jobs[0].rates = std::span<const double>(good.rates);
  jobs[1].kernel = &kernel;  // empty flow: short-series error slot
  jobs[1].rates = std::span<const double>(too_short);
  jobs[1].max_offset = 10;
  jobs[2].kernel = &kernel;  // healthy job after two bad ones
  jobs[2].rates = std::span<const double>(good.rates);
  jobs[2].max_offset = 20;

  const ScanBatch batch(ScanBatchOptions{2});
  const auto results = batch.run(jobs);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(results[2].ok());
  EXPECT_TRUE(results[2].value().best.detected);
  EXPECT_EQ(results[2].value().offset, 4u);
}

#if LEXFOR_OBS
TEST(ScanBatchTest, ObsCountersAccountForTheWorkDone) {
  Rng rng{79};
  const auto code = PnCode::m_sequence(7).value();  // 127 chips
  const CorrelationKernel kernel(code, 5.0);
  std::vector<Flow> flows;
  for (std::size_t i = 0; i < 5; ++i) {
    flows.push_back(marked_flow(code, i, 5.0, rng));
  }
  std::vector<ScanJob> jobs(flows.size());
  std::size_t expected_offsets = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    jobs[i].kernel = &kernel;
    jobs[i].rates = std::span<const double>(flows[i].rates);
    jobs[i].max_offset = 2 * i;  // 1 + 3 + 5 + 7 + 9 = 25 offsets total
    expected_offsets += 2 * i + 1;
  }

  auto& batches = obs::metrics().counter("watermark.scan.batches");
  auto& flows_c = obs::metrics().counter("watermark.scan.flows");
  auto& offsets = obs::metrics().counter("watermark.scan.offsets");
  auto& latency = obs::metrics().histogram("watermark.scan.latency_us");
  const auto batches_before = batches.value();
  const auto flows_before = flows_c.value();
  const auto offsets_before = offsets.value();
  const auto latency_before = latency.count();

  const ScanBatch batch(ScanBatchOptions{3});
  const auto results = batch.run(jobs);
  for (const auto& r : results) ASSERT_TRUE(r.ok());

  EXPECT_EQ(batches.value() - batches_before, 1u);
  EXPECT_EQ(flows_c.value() - flows_before, jobs.size());
  EXPECT_EQ(offsets.value() - offsets_before, expected_offsets);
  // The scan-latency histogram records one sample per job.
  EXPECT_EQ(latency.count() - latency_before, jobs.size());
}
#endif  // LEXFOR_OBS

// --- Family scans ---------------------------------------------------------

// 100 + noise, with `code` planted at `offset`.
std::vector<double> noisy_series(std::size_t length, const PnCode& code,
                                 std::size_t offset, Rng& rng) {
  std::vector<double> rates(length);
  for (std::size_t i = 0; i < length; ++i) {
    rates[i] = 100.0 + rng.normal(0.0, 12.0);
  }
  for (std::size_t i = 0; i < code.length(); ++i) {
    rates[offset + i] += 30.0 * code.chips()[i];
  }
  return rates;
}

std::vector<CorrelationKernel> gold_kernels(int degree, std::size_t count) {
  const auto family = GoldCodeFamily::create(degree).value();
  const std::size_t k = count == 0 ? family.size() : count;
  std::vector<CorrelationKernel> kernels;
  kernels.reserve(k);
  for (std::size_t a = 0; a < k; ++a) kernels.emplace_back(family.code(a));
  return kernels;
}

std::vector<ScanResult> reference_scans(
    const std::vector<CorrelationKernel>& kernels,
    std::span<const double> rates, std::size_t max_offset) {
  std::vector<ScanResult> want;
  want.reserve(kernels.size());
  for (const CorrelationKernel& k : kernels) {
    want.push_back(oracles::naive_scan(k.code(), rates, max_offset).value());
  }
  return want;
}

void expect_slot_matches(const Result<ScanResult>& got, const ScanResult& want,
                         unsigned threads, std::size_t job) {
  ASSERT_TRUE(got.ok()) << "threads=" << threads << " job " << job << ": "
                        << got.status().message();
  const ScanResult& g = got.value();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(g.best.correlation),
            std::bit_cast<std::uint64_t>(want.best.correlation))
      << "threads=" << threads << " job " << job;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(g.best.threshold),
            std::bit_cast<std::uint64_t>(want.best.threshold))
      << "threads=" << threads << " job " << job;
  EXPECT_EQ(g.offset, want.offset) << "threads=" << threads << " job " << job;
  EXPECT_EQ(g.best.detected, want.best.detected)
      << "threads=" << threads << " job " << job;
}

TEST(ScanBatchTest, FamilyFullGoldFamilyMatchesTheReferenceAtEveryThreadCount) {
  // All 513 codes of the degree-9 family over one series, 256 offsets:
  // whole blocks of either width and no tail.
  Rng rng{1601};
  const auto kernels = gold_kernels(9, 0);
  ASSERT_EQ(kernels.size(), 513u);
  constexpr std::size_t kMaxOffset = 255;
  const auto rates =
      noisy_series(511 + kMaxOffset, kernels[3].code(), 77, rng);
  const auto want = reference_scans(kernels, rates, kMaxOffset);
  EXPECT_EQ(want[3].offset, 77u);
  EXPECT_TRUE(want[3].best.detected);

  std::vector<ScanJob> jobs(kernels.size());
  for (std::size_t a = 0; a < jobs.size(); ++a) {
    jobs[a].kernel = &kernels[a];
    jobs[a].rates = rates;
    jobs[a].max_offset = kMaxOffset;
  }
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    const auto got = ScanBatch(ScanBatchOptions{threads}).run(jobs);
    ASSERT_EQ(got.size(), jobs.size());
    for (std::size_t a = 0; a < jobs.size(); ++a) {
      expect_slot_matches(got[a], want[a], threads, a);
    }
  }
}

TEST(ScanBatchTest, FamilySizesAroundTheTileMatchTheReference) {
  // 251 offsets leave a tail after the last full block of either width.
  // Sizes 1, 3, 4, 5 sit around the four-code tile; 129 is the
  // perfbench family, four 32-code runs and one lone code.
  Rng rng{1602};
  const auto kernels = gold_kernels(9, 129);
  constexpr std::size_t kMaxOffset = 250;
  const auto rates =
      noisy_series(511 + kMaxOffset, kernels[100].code(), 249, rng);
  const auto want = reference_scans(kernels, rates, kMaxOffset);
  EXPECT_EQ(want[100].offset, 249u);

  for (const std::size_t size : {1u, 3u, 4u, 5u, 129u}) {
    std::vector<ScanJob> jobs(size);
    for (std::size_t a = 0; a < size; ++a) {
      // Smaller families take the last codes, so code 100 is in most.
      const std::size_t code = kernels.size() - size + a;
      jobs[a].kernel = &kernels[code];
      jobs[a].rates = rates;
      jobs[a].max_offset = kMaxOffset;
    }
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(testing::Message() << "family of " << size);
      const auto got = ScanBatch(ScanBatchOptions{threads}).run(jobs);
      ASSERT_EQ(got.size(), size);
      for (std::size_t a = 0; a < size; ++a) {
        expect_slot_matches(got[a], want[kernels.size() - size + a],
                            threads, a);
      }
    }
  }
}

TEST(ScanBatchTest, FamilyTwoSeriesInterleavedJobByJob) {
  // Even jobs scan series A, odd jobs series B: two families whose
  // members alternate in the input, each slot still answering its job.
  Rng rng{1603};
  const auto kernels = gold_kernels(7, 9);
  constexpr std::size_t kMaxOffset = 40;
  const auto series_a =
      noisy_series(127 + kMaxOffset + 5, kernels[2].code(), 11, rng);
  const auto series_b =
      noisy_series(127 + kMaxOffset + 5, kernels[6].code(), 33, rng);
  const auto want_a = reference_scans(kernels, series_a, kMaxOffset);
  const auto want_b = reference_scans(kernels, series_b, kMaxOffset);

  std::vector<ScanJob> jobs(2 * kernels.size());
  for (std::size_t a = 0; a < kernels.size(); ++a) {
    for (std::size_t s = 0; s < 2; ++s) {
      ScanJob& job = jobs[2 * a + s];
      job.kernel = &kernels[a];
      job.rates = s == 0 ? std::span<const double>(series_a)
                         : std::span<const double>(series_b);
      job.max_offset = kMaxOffset;
    }
  }
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    const auto got = ScanBatch(ScanBatchOptions{threads}).run(jobs);
    ASSERT_EQ(got.size(), jobs.size());
    for (std::size_t a = 0; a < kernels.size(); ++a) {
      expect_slot_matches(got[2 * a], want_a[a], threads, 2 * a);
      expect_slot_matches(got[2 * a + 1], want_b[a], threads, 2 * a + 1);
    }
    EXPECT_EQ(got[4].value().offset, 11u);   // code 2 on series A
    EXPECT_EQ(got[13].value().offset, 33u);  // code 6 on series B
  }
}

TEST(ScanBatchTest, FamilyKeepsErrorSlotsAndMixedSegmentsApart) {
  // One series, scanned by full degree-7 codes (window 127) with two
  // kinds of error slot among them: a null kernel, and jobs over a
  // prefix of the series too short for the code.  A degree-8 kernel
  // scans the same series over the same offsets with a 255-chip
  // window, so it forms a family of its own.
  Rng rng{1604};
  const auto kernels = gold_kernels(7, 4);
  const auto long_code = PnCode::m_sequence(8).value();  // 255 chips
  const CorrelationKernel long_kernel(long_code);
  constexpr std::size_t kMaxOffset = 60;
  const auto rates = noisy_series(255 + kMaxOffset, long_code, 21, rng);
  const std::span<const double> series(rates);
  const auto want = reference_scans(kernels, rates, kMaxOffset);
  const auto want_long =
      oracles::naive_scan(long_code, rates, kMaxOffset).value();
  EXPECT_EQ(want_long.offset, 21u);

  std::vector<ScanJob> jobs(8);
  for (ScanJob& job : jobs) {
    job.rates = rates;
    job.max_offset = kMaxOffset;
  }
  jobs[0].kernel = &kernels[0];
  jobs[1].kernel = nullptr;  // null kernel inside the family
  jobs[2].kernel = &kernels[1];
  jobs[3].kernel = &kernels[2];  // 100 bins for 127 chips
  jobs[3].rates = series.first(100);
  jobs[4].kernel = &long_kernel;  // the 255-chip window's own family
  jobs[5].kernel = &kernels[3];  // one bin short of 127 chips
  jobs[5].rates = series.first(126);
  jobs[6].kernel = &kernels[2];
  jobs[7].kernel = &kernels[3];

  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    const auto got = ScanBatch(ScanBatchOptions{threads}).run(jobs);
    ASSERT_EQ(got.size(), jobs.size());
    expect_slot_matches(got[0], want[0], threads, 0);
    expect_slot_matches(got[2], want[1], threads, 2);
    expect_slot_matches(got[4], want_long, threads, 4);
    expect_slot_matches(got[6], want[2], threads, 6);
    expect_slot_matches(got[7], want[3], threads, 7);
    for (const std::size_t bad : {1u, 3u, 5u}) {
      ASSERT_FALSE(got[bad].ok()) << "threads=" << threads << " job " << bad;
      EXPECT_EQ(got[bad].status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(ScanBatchTest, FamilyOverASeriesWithNoSlackStaysInBounds) {
  // The series lives in a heap block exactly n + last_offset long, so a
  // block or tail that read one element past the last window would be a
  // heap overread under ASan.  256 offsets (whole blocks) and 243
  // (a tail at either width), the second through a clamped max_offset.
  Rng rng{1605};
  const auto kernels = gold_kernels(9, 6);
  for (const std::size_t last_offset : {255u, 242u}) {
    const std::size_t length = 511 + last_offset;
    const auto values =
        noisy_series(length, kernels[4].code(), last_offset, rng);
    const auto exact = std::make_unique<double[]>(length);
    std::copy(values.begin(), values.end(), exact.get());
    const std::span<const double> rates(exact.get(), length);
    const std::size_t max_offset = last_offset == 255 ? 255 : 1000;
    const auto want = reference_scans(kernels, rates, max_offset);
    EXPECT_EQ(want[4].offset, last_offset);

    std::vector<ScanJob> jobs(kernels.size());
    for (std::size_t a = 0; a < jobs.size(); ++a) {
      jobs[a].kernel = &kernels[a];
      jobs[a].rates = rates;
      jobs[a].max_offset = max_offset;
    }
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(testing::Message() << "last offset " << last_offset);
      const auto got = ScanBatch(ScanBatchOptions{threads}).run(jobs);
      for (std::size_t a = 0; a < jobs.size(); ++a) {
        expect_slot_matches(got[a], want[a], threads, a);
      }
    }
  }
}

#if LEXFOR_OBS
TEST(ScanBatchTest, RejectedJobsAddNoOffsets) {
  // Two jobs the batch rejects: one with no kernel, and one whose
  // series is a bin shorter than the 127-chip code.  Only the healthy
  // job's 11 offsets count; every job still counts as a flow and
  // records one latency sample.
  Rng rng{1606};
  const auto code = PnCode::m_sequence(7).value();  // 127 chips
  const CorrelationKernel kernel(code, 5.0);
  const auto flow = marked_flow(code, 3, 5.0, rng);
  std::vector<ScanJob> jobs(3);
  for (ScanJob& job : jobs) {
    job.kernel = &kernel;
    job.rates = flow.rates;
    job.max_offset = 10;
  }
  jobs[0].kernel = nullptr;
  jobs[1].rates = std::span<const double>(flow.rates).first(126);

  auto& flows_c = obs::metrics().counter("watermark.scan.flows");
  auto& offsets = obs::metrics().counter("watermark.scan.offsets");
  auto& latency = obs::metrics().histogram("watermark.scan.latency_us");
  const auto flows_before = flows_c.value();
  const auto offsets_before = offsets.value();
  const auto latency_before = latency.count();

  const auto results = ScanBatch(ScanBatchOptions{2}).run(jobs);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  ASSERT_TRUE(results[2].ok());
  EXPECT_EQ(results[2].value().offset, 3u);

  EXPECT_EQ(flows_c.value() - flows_before, 3u);
  EXPECT_EQ(offsets.value() - offsets_before, 11u);
  EXPECT_EQ(latency.count() - latency_before, 3u);
}
#endif  // LEXFOR_OBS

}  // namespace
}  // namespace lexfor::watermark
