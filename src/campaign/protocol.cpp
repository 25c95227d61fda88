#include "campaign/protocol.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "campaign/executor.hpp"
#include "sim/batch.hpp"

namespace pab::campaign {

std::string encode_spec(const SpecPayload& p) {
  ByteWriter w;
  w.u32(p.version);
  w.u32(p.worker_threads);
  w.u64(p.fingerprint);
  w.str(p.spec_text);
  return w.take();
}

pab::Expected<SpecPayload> decode_spec(std::string_view payload) {
  try {
    ByteReader r(payload);
    SpecPayload p;
    p.version = r.u32();
    p.worker_threads = r.u32();
    p.fingerprint = r.u64();
    p.spec_text = r.str();
    if (p.version != kProtocolVersion)
      return pab::Error{pab::ErrorCode::kInvalidArgument,
                        "campaign protocol version mismatch"};
    auto threads_ok = check_worker_threads(p.worker_threads);
    if (!threads_ok.ok()) return threads_ok.error();
    return p;
  } catch (const std::exception& e) {
    return pab::Error{pab::ErrorCode::kInvalidArgument, e.what()};
  }
}

std::string encode_shard(const Shard& s) {
  ByteWriter w;
  w.u64(s.index);
  w.u64(s.point);
  w.u64(s.begin);
  w.u64(s.end);
  return w.take();
}

pab::Expected<Shard> decode_shard(std::string_view payload) {
  try {
    ByteReader r(payload);
    Shard s;
    s.index = r.u64();
    s.point = r.u64();
    s.begin = r.u64();
    s.end = r.u64();
    return s;
  } catch (const std::exception& e) {
    return pab::Error{pab::ErrorCode::kInvalidArgument, e.what()};
  }
}

namespace {

std::string encode_error(const pab::Error& error) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(error.code));
  w.str(error.detail);
  return w.take();
}

// A bad frame or spec: reported (best effort), then the worker exits
// nonzero.
int fail(int out_fd, const pab::Error& error) {
  (void)write_frame(out_fd, MsgType::kError, encode_error(error));
  return 1;
}

// One kRunShard's reply: the shard's serialized output, or its error.
pab::Expected<bool> reply(int out_fd, const Shard& shard,
                          const pab::Expected<ShardOutput>& output) {
  if (!output.ok())
    return write_frame(out_fd, MsgType::kError, encode_error(output.error()));
  ByteWriter w;
  output.value().serialize(w);
  if (w.bytes().size() >= kMaxFrameBytes)
    return write_frame(
        out_fd, MsgType::kError,
        encode_error({pab::ErrorCode::kInvalidArgument,
                      "shard " + std::to_string(shard.index) + ": " +
                          std::to_string(shard.end - shard.begin) +
                          " trials do not fit one 1 GiB frame; use a "
                          "smaller shard size"}));
  return write_frame(out_fd, MsgType::kShardDone, w.bytes());
}

}  // namespace

std::optional<pab::Expected<ShardOutput>> decode_reply(const Frame& frame,
                                                       std::uint64_t shard) {
  try {
    if (frame.type == MsgType::kShardDone) {
      auto output = ShardOutput::deserialize(frame.payload);
      if (!output.ok() || output.value().shard != shard) return std::nullopt;
      return output;
    }
    if (frame.type == MsgType::kError) {
      ByteReader r(frame.payload);
      const std::uint8_t code = r.u8();
      std::string detail = r.str();
      constexpr auto kLastCode =
          static_cast<std::uint8_t>(pab::ErrorCode::kBusError);
      if (code == 0 || code > kLastCode || !r.done()) return std::nullopt;
      return pab::Expected<ShardOutput>(pab::Error{
          static_cast<pab::ErrorCode>(code), std::move(detail)});
    }
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

int worker_main(int in_fd, int out_fd) {
  std::optional<CampaignSpec> spec;
  std::optional<sim::BatchRunner> runner;  // one per kSpec, shared by shards
  for (;;) {
    auto frame = read_frame(in_fd);
    if (!frame.ok()) {
      // Serve closing the pipe is the normal end of a worker's life.
      if (frame.error().detail == "eof") return 0;
      return fail(out_fd, frame.error());
    }
    switch (frame.value().type) {
      case MsgType::kSpec: {
        auto payload = decode_spec(frame.value().payload);
        if (!payload.ok()) return fail(out_fd, payload.error());
        auto parsed = CampaignSpec::parse(payload.value().spec_text);
        if (!parsed.ok()) return fail(out_fd, parsed.error());
        if (parsed.value().fingerprint() != payload.value().fingerprint)
          return fail(out_fd, {pab::ErrorCode::kInvalidArgument,
                               "spec fingerprint mismatch after transport"});
        spec = std::move(parsed).value();
        runner.emplace(std::max(1u, payload.value().worker_threads), nullptr);
        break;
      }
      case MsgType::kRunShard: {
        if (!spec.has_value())
          return fail(out_fd, {pab::ErrorCode::kInvalidArgument,
                               "kRunShard before kSpec"});
        auto shard = decode_shard(frame.value().payload);
        if (!shard.ok()) return fail(out_fd, shard.error());
        // A shard that fails is its reply; the worker keeps serving.
        const auto output = run_shard(*spec, shard.value(), *runner);
        if (!reply(out_fd, shard.value(), output).ok())
          return 1;  // serve is gone; nothing left to tell
        break;
      }
      default:
        return fail(out_fd, {pab::ErrorCode::kInvalidArgument,
                             "unexpected frame type from serve"});
    }
  }
}

}  // namespace pab::campaign
