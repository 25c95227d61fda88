#include "campaign/protocol.hpp"

#include <algorithm>
#include <exception>
#include <optional>
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

// Emit an error frame (best effort) and the failing exit code.
int fail(int out_fd, const std::string& message) {
  (void)write_frame(out_fd, MsgType::kError, message);
  return 1;
}

}  // namespace

int worker_main(int in_fd, int out_fd) {
  std::optional<CampaignSpec> spec;
  std::optional<sim::BatchRunner> runner;  // one per kSpec, shared by shards
  for (;;) {
    auto frame = read_frame(in_fd);
    if (!frame.ok()) {
      // Serve closing the pipe is the normal end of a worker's life.
      if (frame.error().detail == "eof") return 0;
      return fail(out_fd, frame.error().message());
    }
    switch (frame.value().type) {
      case MsgType::kSpec: {
        auto payload = decode_spec(frame.value().payload);
        if (!payload.ok()) return fail(out_fd, payload.error().message());
        auto parsed = CampaignSpec::parse(payload.value().spec_text);
        if (!parsed.ok()) return fail(out_fd, parsed.error().message());
        if (parsed.value().fingerprint() != payload.value().fingerprint)
          return fail(out_fd, "spec fingerprint mismatch after transport");
        spec = std::move(parsed).value();
        runner.emplace(std::max(1u, payload.value().worker_threads), nullptr);
        break;
      }
      case MsgType::kRunShard: {
        if (!spec.has_value())
          return fail(out_fd, "kRunShard before kSpec");
        auto shard = decode_shard(frame.value().payload);
        if (!shard.ok()) return fail(out_fd, shard.error().message());
        const auto output = run_shard(*spec, shard.value(), *runner);
        if (!output.ok()) return fail(out_fd, output.error().message());
        // Stream the rows in trial-order chunks, then the metrics delta.
        const RecordBatch& records = output.value().records;
        for (std::size_t begin = 0; begin < records.rows();
             begin += kRecordsChunkRows) {
          const std::size_t end =
              std::min(begin + kRecordsChunkRows, records.rows());
          ByteWriter chunk;
          chunk.u64(shard.value().index);
          records.slice(begin, end).serialize(chunk);
          auto sent = write_frame(out_fd, MsgType::kRecords, chunk.bytes());
          if (!sent.ok()) return 1;  // serve is gone; nothing left to tell
        }
        ByteWriter done;
        done.u64(shard.value().index);
        write_metrics(done, output.value().metrics);
        auto sent = write_frame(out_fd, MsgType::kShardDone, done.bytes());
        if (!sent.ok()) return 1;
        break;
      }
      case MsgType::kShutdown:
        return 0;
      default:
        return fail(out_fd, "unexpected frame type from serve");
    }
  }
}

}  // namespace pab::campaign
