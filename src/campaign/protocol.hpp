// The pab_serve <-> pab_worker protocol (payload codecs + worker side).
//
// Conversation, all frames length-prefixed (campaign/wire.hpp):
//   serve  -> worker : kSpec      proto version, worker thread count,
//                                 spec fingerprint, serialized CampaignSpec
//   serve  -> worker : kRunShard  shard {index, point, begin, end}
//   worker -> serve  : kRecords   shard index + a RecordBatch chunk
//                                 (trial order, <= kRecordsChunkRows rows)
//   worker -> serve  : kShardDone shard index + the shard's metrics delta
//   serve  -> worker : kShutdown  (or EOF on the pipe) -- worker exits 0
//   worker -> serve  : kError     fatal failure; worker exits nonzero
// The worker keeps only its spec and one BatchRunner (built per kSpec)
// between shards: each kRunShard runs through campaign::run_shard against a
// fresh session and registry, so any worker may run any shard and a re-run
// reproduces the same bytes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "campaign/spec.hpp"
#include "campaign/wire.hpp"
#include "util/error.hpp"

namespace pab::campaign {

inline constexpr std::uint32_t kProtocolVersion = 1;
// Rows per kRecords frame: small enough that results stream while a shard
// is in flight on another worker, large enough to amortize frame overhead.
inline constexpr std::size_t kRecordsChunkRows = 32;

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

// The whole worker process: serve frames from in_fd, write frames to out_fd,
// return the process exit code.  examples/pab_worker.cpp is one line around
// this so tests can drive a worker over plain pipes too.
int worker_main(int in_fd, int out_fd);

}  // namespace pab::campaign
