// LZ4 codec + compression cost-model tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/lz4.hpp"
#include "compress/param_corpus.hpp"
#include "compress/quant_model.hpp"
#include "dl/model_zoo.hpp"
#include "offload/calibration.hpp"
#include "offload/runtime.hpp"
#include "sim/rng.hpp"

namespace teco::compress {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

/// The byte-at-a-time decoder lz4_decompress replaced, kept as its oracle.
std::vector<std::uint8_t> legacy_lz4_decompress(
    std::span<const std::uint8_t> src, std::size_t decompressed_size) {
  std::vector<std::uint8_t> out;
  out.reserve(decompressed_size);
  std::size_t ip = 0;
  const std::size_t n = src.size();
  auto read_length = [&](std::size_t initial) {
    std::size_t len = initial;
    if (initial == 15) {
      std::uint8_t b;
      do {
        if (ip >= n) throw std::runtime_error("lz4: truncated length");
        b = src[ip++];
        len += b;
      } while (b == 255);
    }
    return len;
  };
  while (ip < n) {
    const std::uint8_t token = src[ip++];
    const std::size_t lit_len = read_length(token >> 4);
    if (ip + lit_len > n) throw std::runtime_error("lz4: truncated literals");
    out.insert(out.end(), src.begin() + ip, src.begin() + ip + lit_len);
    ip += lit_len;
    if (ip >= n) break;
    if (ip + 2 > n) throw std::runtime_error("lz4: truncated offset");
    const std::size_t offset = src[ip] | (src[ip + 1] << 8);
    ip += 2;
    if (offset == 0 || offset > out.size()) {
      throw std::runtime_error("lz4: invalid offset");
    }
    const std::size_t match_len = read_length(token & 0x0F) + 4;
    std::size_t from = out.size() - offset;
    for (std::size_t i = 0; i < match_len; ++i) {
      out.push_back(out[from + i]);
    }
  }
  if (out.size() != decompressed_size) {
    throw std::runtime_error("lz4: size mismatch after decompression");
  }
  return out;
}

void expect_roundtrip(const std::vector<std::uint8_t>& src) {
  const auto c = lz4_compress(src);
  const auto d = lz4_decompress(c, src.size());
  ASSERT_EQ(d.size(), src.size());
  EXPECT_EQ(d, src);
  EXPECT_EQ(d, legacy_lz4_decompress(c, src.size()));
}

TEST(Lz4, EmptyInput) {
  expect_roundtrip({});
  EXPECT_TRUE(lz4_compress({}).empty());
}

TEST(Lz4, TinyInputsStayLiteral) {
  for (std::size_t n = 1; n <= 20; ++n) {
    std::vector<std::uint8_t> src(n);
    for (std::size_t i = 0; i < n; ++i) src[i] = static_cast<std::uint8_t>(i);
    expect_roundtrip(src);
  }
}

TEST(Lz4, RepetitiveDataCompressesHard) {
  std::vector<std::uint8_t> src(100000, 0xAB);
  const auto c = lz4_compress(src);
  EXPECT_LT(c.size(), src.size() / 50);
  expect_roundtrip(src);
}

TEST(Lz4, TextLikeData) {
  std::string s;
  for (int i = 0; i < 500; ++i) {
    s += "the quick brown fox jumps over the lazy dog ";
  }
  const auto src = bytes_of(s);
  const auto c = lz4_compress(src);
  EXPECT_LT(c.size(), src.size() / 3);
  expect_roundtrip(src);
}

TEST(Lz4, RandomDataDoesNotExplode) {
  sim::Rng rng(1);
  std::vector<std::uint8_t> src(65536);
  for (auto& b : src) b = static_cast<std::uint8_t>(rng.next_below(256));
  const auto c = lz4_compress(src);
  EXPECT_LT(c.size(), src.size() + src.size() / 128 + 64);
  expect_roundtrip(src);
}

TEST(Lz4, LongLiteralRunsUseExtendedLengths) {
  // > 255 literals before a match forces the 255-run length encoding.
  sim::Rng rng(2);
  std::vector<std::uint8_t> src;
  for (int i = 0; i < 1000; ++i) {
    src.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
  }
  for (int i = 0; i < 64; ++i) src.push_back(0x55);  // Then a match source.
  for (int i = 0; i < 64; ++i) src.push_back(0x55);
  expect_roundtrip(src);
}

TEST(Lz4, OverlappingMatchDecodes) {
  // RLE-style: match offset 1, long length — the classic overlap case.
  std::vector<std::uint8_t> src(5000, 0x77);
  src[0] = 0x12;  // Break uniformity at the head.
  expect_roundtrip(src);
}

TEST(Lz4, MalformedInputThrows) {
  // Token promising more literals than present.
  std::vector<std::uint8_t> bogus = {0xF0};  // 15 literals, none follow.
  EXPECT_THROW((void)lz4_decompress(bogus, 100), std::runtime_error);
  // Offset pointing before the start of output.
  std::vector<std::uint8_t> bad_offset = {0x10, 'a', 0x09, 0x00};
  EXPECT_THROW((void)lz4_decompress(bad_offset, 100), std::runtime_error);
  // Size mismatch.
  const auto c = lz4_compress(bytes_of("hello world, hello world, hello"));
  EXPECT_THROW((void)lz4_decompress(c, 7), std::runtime_error);
}

TEST(Lz4, AmplifyingStreamRejectedBeforeItGrows) {
  // One literal, then a match at offset 1 whose length runs on 255-bytes:
  // 64 stream bytes ask for ~15 KB. The decoder must refuse at the match,
  // not after writing it.
  std::vector<std::uint8_t> stream = {0x1F, 'a', 0x01, 0x00};
  stream.insert(stream.end(), 59, 255);
  stream.push_back(0);
  try {
    (void)lz4_decompress(stream, 64);
    ADD_FAILURE() << "amplifying stream decoded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the declared size"),
              std::string::npos)
        << e.what();
  }
  // A literal run longer than the declared size is refused the same way.
  const std::vector<std::uint8_t> literals = {0x50, 1, 2, 3, 4, 5};
  EXPECT_THROW((void)lz4_decompress(literals, 4), std::runtime_error);
  EXPECT_EQ(lz4_decompress(literals, 5),
            (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
}

TEST(Lz4, OverlappingMatchesMatchLegacyDecoder) {
  // Every short offset against match lengths around the chunk doublings,
  // each followed by a final literal, on hand-built streams.
  for (std::size_t offset = 1; offset <= 17; ++offset) {
    for (std::size_t match_len = 4; match_len <= 80; match_len += 3) {
      std::vector<std::uint8_t> stream;
      const std::size_t ml_code = match_len - 4;
      stream.push_back(static_cast<std::uint8_t>(
          (std::min<std::size_t>(offset, 15) << 4) |
          std::min<std::size_t>(ml_code, 15)));
      if (offset >= 15) stream.push_back(static_cast<std::uint8_t>(offset - 15));
      for (std::size_t i = 0; i < offset; ++i) {
        stream.push_back(static_cast<std::uint8_t>(17 * i + 3));
      }
      stream.push_back(static_cast<std::uint8_t>(offset));
      stream.push_back(0);
      if (ml_code >= 15) {
        std::size_t rest = ml_code - 15;
        for (; rest >= 255; rest -= 255) stream.push_back(255);
        stream.push_back(static_cast<std::uint8_t>(rest));
      }
      stream.push_back(0x10);  // Final sequence: one literal.
      stream.push_back(0xEE);
      const std::size_t size = offset + match_len + 1;
      EXPECT_EQ(lz4_decompress(stream, size),
                legacy_lz4_decompress(stream, size))
          << "offset " << offset << " match " << match_len;
    }
  }
}

class Lz4RoundTrip
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(Lz4RoundTrip, MixedEntropyBuffers) {
  const auto [size, seed] = GetParam();
  sim::Rng rng(seed);
  std::vector<std::uint8_t> src(size);
  std::size_t i = 0;
  while (i < size) {
    if (rng.next_bool(0.3)) {  // Compressible run.
      const auto b = static_cast<std::uint8_t>(rng.next_below(4));
      const std::size_t run = 8 + rng.next_below(200);
      for (std::size_t k = 0; k < run && i < size; ++k) src[i++] = b;
    } else {
      src[i++] = static_cast<std::uint8_t>(rng.next_below(256));
    }
  }
  expect_roundtrip(src);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, Lz4RoundTrip,
    ::testing::Combine(::testing::Values<std::size_t>(1, 13, 64, 1000, 65536,
                                                      300000),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

TEST(ParamCorpus, RatiosMatchTableVIII) {
  // Paper Table VIII compression savings: GPT2 5 %, Albert 0 %, Bert 0 %,
  // T5 36 %. Our corpora + real codec must land in those neighborhoods.
  const double expected_savings[] = {0.05, 0.0, 0.0, 0.36};
  const auto specs = table8_corpora();
  ASSERT_EQ(specs.size(), 4u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto corpus = make_param_corpus(specs[i], 1 << 20);
    const double saving = 1.0 - compression_ratio(corpus);
    EXPECT_NEAR(saving, expected_savings[i], 0.05) << specs[i].model;
  }
}

TEST(ParamCorpus, DeterministicFromSeed) {
  const auto a = make_param_corpus(table8_corpora()[0], 4096);
  const auto b = make_param_corpus(table8_corpora()[0], 4096);
  EXPECT_EQ(a, b);
}

TEST(QuantModel, Lz4PathSlowerThanTeco) {
  // Table VIII conclusion: LZ4-instead-of-DBA costs >= ~2x training time.
  const auto& cal = offload::default_calibration();
  for (const auto& m : {dl::gpt2(), dl::bert_large_cased(), dl::t5_large()}) {
    const auto teco = offload::simulate_step(
        offload::RuntimeKind::kTecoReduction, m, 4, cal);
    Lz4PathConfig lz4;
    lz4.ratio = 0.95;
    lz4.compress_bw = 2.0e9;
    const auto t = lz4_step_time(m, 4, cal, lz4);
    EXPECT_GT(t / teco.total(), 1.5) << m.name;
  }
}

TEST(QuantModel, BetterRatioOrBandwidthHelps) {
  const auto& cal = offload::default_calibration();
  const auto m = dl::bert_large_cased();
  Lz4PathConfig slow{0.95, 1.0e9, 20e9};
  Lz4PathConfig fast{0.95, 8.0e9, 20e9};
  EXPECT_LT(lz4_step_time(m, 4, cal, fast), lz4_step_time(m, 4, cal, slow));
}

TEST(QuantModel, ZeroQuantRatioNearTableVII) {
  const auto row = table7_training_hours();
  EXPECT_GT(row.teco_hours, 0.5);
  EXPECT_LT(row.teco_hours, 6.0);
  // Paper: 5.8 h vs 2.03 h => 2.86x.
  EXPECT_NEAR(row.ratio, 2.86, 0.6);
  EXPECT_GT(row.zeroquant_hours, row.teco_hours);
}

}  // namespace
}  // namespace teco::compress
