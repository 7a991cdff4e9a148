// ScanBatch: deterministic multi-flow fan-out over the thread pool.
//
// The contract under test: slot i of the output always answers job i
// with bits identical to running the job alone, whatever the pool
// size; error jobs (null kernel, short series) fill their slot without
// aborting the batch; and the watermark.scan.* obs instruments account
// for exactly the work done.

#include "watermark/scan_batch.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "obs/obs.h"
#include "util/rng.h"
#include "watermark/dsss.h"
#include "watermark/multibit.h"

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
  const Detector detector(code);
  std::vector<Flow> flows;
  for (std::size_t i = 0; i < 6; ++i) {
    flows.push_back(marked_flow(code, 11 * i + 1, 12.0, rng));
  }
  std::vector<ScanJob> jobs(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    jobs[i].kernel = &detector.kernel();
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
          detector.detect_with_scan_reference(flows[i].rates, 64).value();
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

TEST(ScanBatchTest, MultibitDecodeWithBatchIsBitIdenticalToSerialDecode) {
  Rng rng{81};
  const auto code = PnCode::m_sequence(10).value();
  const std::vector<std::int8_t> payload = {1,  -1, 1, 1, -1, -1, 1, -1,
                                            -1, 1,  1, 1, -1, 1,  -1, -1};
  constexpr std::size_t kChipsPerBit = 63;
  std::vector<double> rates;
  for (std::size_t chip = 0; chip < payload.size() * kChipsPerBit; ++chip) {
    rates.push_back(100.0 +
                    20.0 * payload[chip / kChipsPerBit] * code.chips()[chip] +
                    rng.normal(0.0, 40.0));
  }
  const MultiBitDecoder decoder(code, kChipsPerBit);
  const auto serial = decoder.decode(rates, payload.size()).value();
  const ScanBatch batch(ScanBatchOptions{4});
  const auto fanned =
      decoder.decode_with(batch, rates, payload.size()).value();
  EXPECT_EQ(serial.bits, fanned.bits);
  ASSERT_EQ(serial.correlations.size(), fanned.correlations.size());
  for (std::size_t i = 0; i < serial.correlations.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.correlations[i]),
              std::bit_cast<std::uint64_t>(fanned.correlations[i]));
  }
}

}  // namespace
}  // namespace lexfor::watermark
