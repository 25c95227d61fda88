#include "campaign/wire.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace pab::campaign {

namespace {

// read_frame grows a frame body by at most this much per read.
constexpr std::size_t kReadChunkBytes = 64 * 1024;

}  // namespace

void ByteWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

std::uint8_t ByteReader::u8() {
  if (pos_ >= bytes_.size())
    throw std::runtime_error("campaign wire: truncated payload");
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  if (bytes_.size() - pos_ < n)
    throw std::runtime_error("campaign wire: truncated payload");
  std::string out(bytes_.substr(pos_, n));
  pos_ += n;
  return out;
}

void write_metrics(ByteWriter& w, const obs::MetricsSnapshot& m) {
  w.u32(static_cast<std::uint32_t>(m.counters.size()));
  for (const auto& [name, v] : m.counters) {
    w.str(name);
    w.u64(v);
  }
  w.u32(static_cast<std::uint32_t>(m.gauges.size()));
  for (const auto& [name, v] : m.gauges) {
    w.str(name);
    w.f64(v);
  }
  w.u32(static_cast<std::uint32_t>(m.histograms.size()));
  for (const auto& [name, h] : m.histograms) {
    w.str(name);
    w.u32(static_cast<std::uint32_t>(h.bounds.size()));
    for (const double b : h.bounds) w.f64(b);
    for (const std::uint64_t c : h.buckets) w.u64(c);
    w.u64(h.count);
    w.f64(h.sum);
  }
}

obs::MetricsSnapshot read_metrics(ByteReader& r) {
  obs::MetricsSnapshot m;
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    std::string name = r.str();
    m.counters.emplace(std::move(name), r.u64());
  }
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    std::string name = r.str();
    m.gauges.emplace(std::move(name), r.f64());
  }
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    std::string name = r.str();
    obs::HistogramSnapshot h;
    const std::uint32_t bounds = r.u32();
    // Each bound and bucket is an 8-byte f64/u64: a count the payload
    // cannot hold is a lie, rejected before anything is sized from it.
    if (bounds > r.remaining() / 8)
      throw std::runtime_error("campaign wire: truncated payload");
    h.bounds.reserve(bounds);
    for (std::uint32_t b = 0; b < bounds; ++b) h.bounds.push_back(r.f64());
    h.buckets.resize(std::size_t{bounds} + 1);
    for (auto& c : h.buckets) c = r.u64();
    h.count = r.u64();
    h.sum = r.f64();
    m.histograms.emplace(std::move(name), std::move(h));
  }
  return m;
}

namespace {

pab::Expected<bool> write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return pab::Error{pab::ErrorCode::kBusError,
                        std::string("write: ") + std::strerror(errno)};
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

// Returns bytes read (0 only on immediate EOF when allow_eof).
pab::Expected<bool> read_all(int fd, char* data, std::size_t n, bool* eof) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, data + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return pab::Error{pab::ErrorCode::kBusError,
                        std::string("read: ") + std::strerror(errno)};
    }
    if (r == 0) {
      if (got == 0 && eof != nullptr) {
        *eof = true;
        return true;
      }
      return pab::Error{pab::ErrorCode::kBusError,
                        "campaign wire: truncated frame (peer exited)"};
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

pab::Expected<bool> write_frame(int fd, MsgType type,
                                std::string_view payload) {
  if (payload.size() >= kMaxFrameBytes)
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "campaign wire: frame above the 1 GiB limit"};
  ByteWriter header;
  header.u32(static_cast<std::uint32_t>(payload.size() + 1));
  header.u8(static_cast<std::uint8_t>(type));
  auto ok = write_all(fd, header.bytes().data(), header.bytes().size());
  if (!ok.ok()) return ok;
  return write_all(fd, payload.data(), payload.size());
}

pab::Expected<Frame> read_frame(int fd) {
  char lenbuf[4];
  bool eof = false;
  auto ok = read_all(fd, lenbuf, sizeof(lenbuf), &eof);
  if (!ok.ok()) return ok.error();
  if (eof) return pab::Error{pab::ErrorCode::kBusError, "eof"};
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(lenbuf[i]))
           << (8 * i);
  if (len == 0 || len > kMaxFrameBytes)
    return pab::Error{pab::ErrorCode::kBusError,
                      "campaign wire: bad frame length"};
  // The length prefix is untrusted: grow the body as bytes arrive, so memory
  // tracks what the peer actually sent, not what the prefix claims.
  std::string body;
  while (body.size() < len) {
    const std::size_t have = body.size();
    const std::size_t n = std::min<std::size_t>(len - have, kReadChunkBytes);
    body.resize(have + n);
    ok = read_all(fd, body.data() + have, n, nullptr);
    if (!ok.ok()) return ok.error();
  }
  Frame f;
  f.type = static_cast<MsgType>(static_cast<std::uint8_t>(body[0]));
  f.payload = body.substr(1);
  return f;
}

}  // namespace pab::campaign
