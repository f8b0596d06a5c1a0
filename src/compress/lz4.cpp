#include "compress/lz4.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace teco::compress {

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kLastLiterals = 5;   ///< Spec: last 5 bytes literal.
constexpr std::size_t kMfLimit = 12;       ///< No match starts within 12B of end.
constexpr std::size_t kMaxOffset = 65535;
constexpr std::size_t kHashLog = 16;

std::uint32_t read32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

std::uint32_t hash4(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashLog);
}

void emit_length(std::vector<std::uint8_t>& out, std::size_t len) {
  while (len >= 255) {
    out.push_back(255);
    len -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(len));
}

}  // namespace

std::vector<std::uint8_t> lz4_compress(std::span<const std::uint8_t> src) {
  std::vector<std::uint8_t> out;
  out.reserve(src.size() + src.size() / 255 + 16);
  const std::size_t n = src.size();
  const std::uint8_t* base = src.data();

  auto emit_literal_run = [&](std::size_t lit_start, std::size_t lit_len,
                              std::size_t match_len, std::size_t offset) {
    const std::size_t ml_code = match_len == 0 ? 0 : match_len - kMinMatch;
    std::uint8_t token = 0;
    token |= static_cast<std::uint8_t>(
        (lit_len >= 15 ? 15 : lit_len) << 4);
    token |= static_cast<std::uint8_t>(ml_code >= 15 ? 15 : ml_code);
    out.push_back(token);
    if (lit_len >= 15) emit_length(out, lit_len - 15);
    out.insert(out.end(), base + lit_start, base + lit_start + lit_len);
    if (match_len != 0) {
      out.push_back(static_cast<std::uint8_t>(offset & 0xFF));
      out.push_back(static_cast<std::uint8_t>(offset >> 8));
      if (ml_code >= 15) emit_length(out, ml_code - 15);
    }
  };

  if (n < kMfLimit + kLastLiterals) {
    if (n > 0) emit_literal_run(0, n, 0, 0);
    return out;
  }

  std::vector<std::uint32_t> table(1u << kHashLog, 0xFFFFFFFFu);
  std::size_t anchor = 0;
  std::size_t ip = 0;
  const std::size_t match_limit = n - kMfLimit;

  while (ip < match_limit) {
    const std::uint32_t h = hash4(read32(base + ip));
    const std::uint32_t cand = table[h];
    table[h] = static_cast<std::uint32_t>(ip);
    if (cand == 0xFFFFFFFFu || ip - cand > kMaxOffset ||
        read32(base + cand) != read32(base + ip)) {
      ++ip;
      continue;
    }
    // Extend the match forward, keeping the last-5-literals invariant.
    std::size_t match_len = kMinMatch;
    const std::size_t max_len = (n - kLastLiterals) - ip;
    while (match_len < max_len &&
           base[cand + match_len] == base[ip + match_len]) {
      ++match_len;
    }
    emit_literal_run(anchor, ip - anchor, match_len, ip - cand);
    ip += match_len;
    anchor = ip;
  }
  emit_literal_run(anchor, n - anchor, 0, 0);
  return out;
}

std::vector<std::uint8_t> lz4_decompress(std::span<const std::uint8_t> src,
                                         std::size_t decompressed_size) {
  // One allocation of the declared size; every literal run and match is
  // checked against it before it is copied, so a stream cannot grow the
  // output past what its caller declared.
  std::vector<std::uint8_t> out(decompressed_size);
  std::uint8_t* const dst = out.data();
  std::size_t op = 0;
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
  auto check_room = [&](std::size_t len) {
    if (len > decompressed_size - op) {
      throw std::runtime_error("lz4: output exceeds the declared size");
    }
  };

  while (ip < n) {
    const std::uint8_t token = src[ip++];
    const std::size_t lit_len = read_length(token >> 4);
    if (lit_len > n - ip) throw std::runtime_error("lz4: truncated literals");
    check_room(lit_len);
    if (lit_len != 0) std::memcpy(dst + op, src.data() + ip, lit_len);
    op += lit_len;
    ip += lit_len;
    if (ip >= n) break;  // Final literals-only sequence.
    if (ip + 2 > n) throw std::runtime_error("lz4: truncated offset");
    const std::size_t offset = src[ip] | (src[ip + 1] << 8);
    ip += 2;
    if (offset == 0 || offset > op) {
      throw std::runtime_error("lz4: invalid offset");
    }
    const std::size_t match_len = read_length(token & 0x0F) + kMinMatch;
    check_room(match_len);
    // The match repeats the `offset` bytes before it. Each chunk copies
    // from the match's source start and never reaches past what is already
    // written, so the chunks double: offset, 2*offset, 4*offset, ...
    std::uint8_t* const to = dst + op;
    const std::uint8_t* const from = to - offset;
    for (std::size_t done = 0; done < match_len;) {
      const std::size_t chunk = std::min(done + offset, match_len - done);
      std::memcpy(to + done, from, chunk);
      done += chunk;
    }
    op += match_len;
  }
  if (op != decompressed_size) {
    throw std::runtime_error("lz4: size mismatch after decompression");
  }
  return out;
}

double compression_ratio(std::span<const std::uint8_t> src) {
  if (src.empty()) return 1.0;
  const auto c = lz4_compress(src);
  return static_cast<double>(c.size()) / static_cast<double>(src.size());
}

}  // namespace teco::compress
