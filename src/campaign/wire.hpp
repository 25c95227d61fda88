// Campaign wire format: canonical byte encoding and length-prefixed frames.
//
// Everything the campaign engine persists or ships between processes --
// record batches, metric snapshots, shard descriptors, checkpoint shard
// files -- goes through one canonical little-endian encoding, so "the same
// results" is testable as byte equality: a merged multi-process campaign and
// a single-process run serialize to identical bytes.
//
// Frames (the pab_serve <-> pab_worker pipe protocol) are
//   u32 length (type byte + payload) | u8 MsgType | payload bytes
// with blocking full-read/full-write semantics: each side writes whole
// frames, so a reader that has seen the length prefix can read to the end of
// the frame without re-entering its event loop.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace pab::campaign {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void f64(double v);  // IEEE-754 bit pattern, little-endian
  // Length-prefixed string (u32 length + bytes).
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s);
  }
  void raw(std::string_view s) { buf_.append(s.data(), s.size()); }
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

  [[nodiscard]] const std::string& bytes() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  // The little-endian bytes of `v`, appended in one call.
  template <typename T>
  void le(T v) {
    char bytes[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i)
      bytes[i] = static_cast<char>(v >> (8 * i));
    buf_.append(bytes, sizeof(T));
  }

  std::string buf_;
};

// Reader over a complete in-memory payload.  Truncation (a malformed or
// short payload) throws std::runtime_error; protocol handlers catch it at
// the frame boundary and surface a pab::Error.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return v;
  }
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();

  [[nodiscard]] bool done() const { return pos_ == bytes_.size(); }
  // Unread bytes: decoders bound untrusted counts by it before sizing.
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

// Metric snapshot codec: the per-shard deltas shipped in kShardDone frames
// and embedded in checkpoint shard files.
void write_metrics(ByteWriter& w, const obs::MetricsSnapshot& m);
[[nodiscard]] obs::MetricsSnapshot read_metrics(ByteReader& r);

// ---- Frames -----------------------------------------------------------------

enum class MsgType : std::uint8_t {
  kSpec = 1,      // serve -> worker: campaign spec + worker thread count
  kRunShard = 2,  // serve -> worker: one shard assignment
  kRecords = 3,   // worker -> serve: a chunk of a shard's record batch
  kShardDone = 4, // worker -> serve: shard finished; metrics delta attached
  kShutdown = 5,  // serve -> worker: drain and exit
  kError = 6,     // worker -> serve: fatal failure (message payload)
};

struct Frame {
  MsgType type{};
  std::string payload;
};

// Blocking full write of one frame.  Fails (kBusError) when the peer is gone
// (EPIPE/EBADF) -- callers treat that as a dead worker, not a crash.
[[nodiscard]] pab::Expected<bool> write_frame(int fd, MsgType type,
                                              std::string_view payload);

// Blocking read of one whole frame.  A clean EOF at a frame boundary returns
// kBusError with detail "eof" (the worker's shutdown signal when the serve
// side closes the pipe); EOF mid-frame reports a truncated stream.
[[nodiscard]] pab::Expected<Frame> read_frame(int fd);

}  // namespace pab::campaign
