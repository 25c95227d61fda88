// The pab_serve <-> pab_worker protocol (payload codecs + worker side).
//
// Conversation, all frames length-prefixed (campaign/wire.hpp):
//   serve  -> worker : kSpec      proto version, worker thread count,
//                                 spec fingerprint, serialized CampaignSpec
//   then, once per shard, one request and one reply:
//   serve  -> worker : kRunShard  shard {index, point, begin, end}
//   worker -> serve  : kShardDone the shard's ShardOutput::serialize bytes
//                                 (the checkpoint's encoding), or
//   worker -> serve  : kError     (u8 ErrorCode, detail): the shard's
//                                 run_shard error; the worker keeps serving
// A bad frame or spec is a kError too, after which the worker exits
// nonzero; the serve side closing the pipe ends the worker (exit 0).
// The worker keeps only its spec and one BatchRunner (built per kSpec)
// between shards: each kRunShard runs through campaign::run_shard against a
// fresh session and registry, so any worker may run any shard and a re-run
// reproduces the same bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "campaign/shard_runner.hpp"
#include "campaign/spec.hpp"
#include "campaign/wire.hpp"
#include "util/error.hpp"

namespace pab::campaign {

inline constexpr std::uint32_t kProtocolVersion = 2;

struct SpecPayload {
  std::uint32_t version = kProtocolVersion;
  std::uint32_t worker_threads = 1;  // decode_spec rejects > kMaxThreads
  std::uint64_t fingerprint = 0;
  std::string spec_text;
};

[[nodiscard]] std::string encode_spec(const SpecPayload& p);
[[nodiscard]] pab::Expected<SpecPayload> decode_spec(std::string_view payload);

[[nodiscard]] std::string encode_shard(const Shard& s);
[[nodiscard]] pab::Expected<Shard> decode_shard(std::string_view payload);

// The worker's reply to kRunShard for shard `shard`: its output, or the
// error it failed with, exactly as run_shard returned it.  nullopt when the
// frame is neither -- another type, a malformed payload, or an output
// that names another shard.
[[nodiscard]] std::optional<pab::Expected<ShardOutput>> decode_reply(
    const Frame& frame, std::uint64_t shard);

// The whole worker process: serve frames from in_fd, write frames to out_fd,
// return the process exit code.  examples/pab_worker.cpp is one line around
// this so tests can drive a worker over plain pipes too.
int worker_main(int in_fd, int out_fd);

}  // namespace pab::campaign
