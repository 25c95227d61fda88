#include "campaign/process_executor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <exception>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "campaign/manifest.hpp"
#include "campaign/protocol.hpp"

namespace pab::campaign {

namespace {

struct Worker {
  pid_t pid = -1;
  int to_fd = -1;    // serve -> worker stdin
  int from_fd = -1;  // worker stdout -> serve
  bool busy = false;
  std::uint64_t shard = 0;  // meaningful while busy
};

pab::Expected<Worker> spawn_worker(const std::string& binary) {
  int down[2];  // serve -> worker
  int up[2];    // worker -> serve
  if (::pipe(down) != 0)
    return pab::Error{pab::ErrorCode::kBusError, "pipe failed"};
  if (::pipe(up) != 0) {
    ::close(down[0]);
    ::close(down[1]);
    return pab::Error{pab::ErrorCode::kBusError, "pipe failed"};
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : {down[0], down[1], up[0], up[1]}) ::close(fd);
    return pab::Error{pab::ErrorCode::kBusError, "fork failed"};
  }
  if (pid == 0) {
    // Child: frames on stdin/stdout, stderr inherited for diagnostics.
    ::dup2(down[0], 0);
    ::dup2(up[1], 1);
    for (const int fd : {down[0], down[1], up[0], up[1]}) ::close(fd);
    ::execl(binary.c_str(), binary.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(down[0]);
  ::close(up[1]);
  // Serve-side ends must not leak into later-spawned workers: an inherited
  // write end would keep a sibling's stdin open past our close, so the
  // sibling never sees EOF and shutdown deadlocks in waitpid.
  ::fcntl(down[1], F_SETFD, FD_CLOEXEC);
  ::fcntl(up[0], F_SETFD, FD_CLOEXEC);
  Worker w;
  w.pid = pid;
  w.to_fd = down[1];
  w.from_fd = up[0];
  return w;
}

// A dead worker raises EPIPE on our next write; we want the error return,
// not the default terminate-the-serve signal disposition.
class SigpipeGuard {
 public:
  SigpipeGuard() { previous_ = std::signal(SIGPIPE, SIG_IGN); }
  ~SigpipeGuard() { std::signal(SIGPIPE, previous_); }
  SigpipeGuard(const SigpipeGuard&) = delete;
  SigpipeGuard& operator=(const SigpipeGuard&) = delete;

 private:
  void (*previous_)(int) = nullptr;
};

void reap_workers(std::vector<Worker>& workers, bool force) {
  for (Worker& w : workers) {
    if (w.pid < 0) continue;
    if (force) ::kill(w.pid, SIGKILL);
    if (w.to_fd >= 0) ::close(w.to_fd);  // EOF: idle workers exit cleanly
    if (w.from_fd >= 0) ::close(w.from_fd);
    int status = 0;
    while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
    }
    w.pid = -1;
    w.to_fd = w.from_fd = -1;
  }
}

}  // namespace

pab::Expected<CampaignResult> ProcessExecutor::run(const CampaignSpec& spec,
                                                   const RunOptions& options) {
  auto valid = spec.validate();
  if (!valid.ok()) return valid.error();
  if (options.worker_binary.empty())
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "ProcessExecutor: options.worker_binary is required"};
  auto threads_ok = check_worker_threads(options.worker_threads);
  if (!threads_ok.ok()) return threads_ok.error();
  const std::vector<Shard> shards = spec.compile(options.shard_size);

  std::optional<CheckpointStore> store;
  if (!options.checkpoint_dir.empty()) {
    store.emplace(options.checkpoint_dir);
    auto opened =
        store->open(spec.fingerprint(), shards.size(), options.resume);
    if (!opened.ok()) return opened.error();
  }

  ShardFold fold(spec);
  std::deque<const Shard*> pending;
  for (const Shard& shard : shards) {
    if (store.has_value() && store->is_done(shard.index)) {
      auto loaded = store->load(shard.index);
      if (!loaded.ok()) return loaded.error();
      auto added = fold.add(std::move(loaded).value());
      if (!added.ok()) return added.error();
    } else {
      pending.push_back(&shard);
    }
  }
  if (pending.empty()) return std::move(fold).finish();

  const SigpipeGuard sigpipe;
  const unsigned n_workers = std::max(1u, options.workers);
  std::vector<Worker> workers;
  workers.reserve(n_workers);

  SpecPayload hello;
  hello.worker_threads = std::max(1u, options.worker_threads);
  hello.fingerprint = spec.fingerprint();
  hello.spec_text = spec.serialize();
  const std::string spec_payload = encode_spec(hello);

  std::uint64_t assigned = 0;  // newly-executed shards handed out this pass
  const auto budget_left = [&] {
    return options.max_shards == 0 || assigned < options.max_shards;
  };
  const auto fail = [&](pab::Error error) -> pab::Expected<CampaignResult> {
    reap_workers(workers, /*force=*/true);
    return error;
  };
  const auto assign = [&](Worker& w) -> pab::Expected<bool> {
    const Shard* shard = pending.front();
    pending.pop_front();
    ++assigned;
    auto sent = write_frame(w.to_fd, MsgType::kRunShard, encode_shard(*shard));
    if (!sent.ok()) return sent.error();
    w.busy = true;
    w.shard = shard->index;
    return true;
  };

  for (unsigned i = 0; i < n_workers && !pending.empty() && budget_left();
       ++i) {
    auto spawned = spawn_worker(options.worker_binary);
    if (!spawned.ok()) return fail(spawned.error());
    workers.push_back(spawned.value());
    Worker& w = workers.back();
    auto sent = write_frame(w.to_fd, MsgType::kSpec, spec_payload);
    if (!sent.ok()) return fail(sent.error());
    auto ok = assign(w);
    if (!ok.ok()) return fail(ok.error());
  }

  // In-flight record chunks, keyed by shard; finalized on kShardDone.
  std::map<std::uint64_t, RecordBatch> partial;
  const auto busy_count = [&] {
    unsigned n = 0;
    for (const Worker& w : workers) n += w.busy ? 1 : 0;
    return n;
  };

  while (busy_count() > 0) {
    std::vector<pollfd> fds;
    std::vector<Worker*> owners;
    for (Worker& w : workers) {
      if (!w.busy) continue;
      fds.push_back(pollfd{w.from_fd, POLLIN, 0});
      owners.push_back(&w);
    }
    const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return fail(pab::Error{pab::ErrorCode::kBusError,
                             std::string("poll: ") + std::strerror(errno)});
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Worker& w = *owners[i];
      auto frame = read_frame(w.from_fd);
      if (!frame.ok())
        return fail(pab::Error{pab::ErrorCode::kBusError,
                               "worker for shard " + std::to_string(w.shard) +
                                   " died: " + frame.error().message()});
      try {
        switch (frame.value().type) {
          case MsgType::kRecords: {
            ByteReader r(frame.value().payload);
            const std::uint64_t shard = r.u64();
            auto chunk = RecordBatch::deserialize(r);
            if (!chunk.ok()) return fail(chunk.error());
            const auto it =
                partial.try_emplace(shard, RecordBatch(spec.kind)).first;
            it->second.append_batch(chunk.value());
            break;
          }
          case MsgType::kShardDone: {
            ByteReader r(frame.value().payload);
            ShardOutput output;
            output.shard = r.u64();
            if (output.shard != w.shard)
              return fail(pab::Error{pab::ErrorCode::kBusError,
                                     "worker finished a shard it did not own"});
            output.metrics = read_metrics(r);
            const auto it = partial.find(output.shard);
            output.records = it != partial.end()
                                 ? std::move(it->second)
                                 : RecordBatch(spec.kind);
            if (it != partial.end()) partial.erase(it);
            const Shard& meta = shards[output.shard];
            if (output.records.rows() != meta.end - meta.begin)
              return fail(pab::Error{pab::ErrorCode::kBusError,
                                     "shard record stream incomplete"});
            if (store.has_value()) {
              auto stored = store->store(output);
              if (!stored.ok()) return fail(stored.error());
            }
            auto added = fold.add(std::move(output));
            if (!added.ok()) return fail(added.error());
            w.busy = false;
            if (!pending.empty() && budget_left()) {
              auto ok = assign(w);
              if (!ok.ok()) return fail(ok.error());
            }
            break;
          }
          case MsgType::kError:
            return fail(pab::Error{pab::ErrorCode::kBusError,
                                   "worker error: " + frame.value().payload});
          default:
            return fail(pab::Error{pab::ErrorCode::kBusError,
                                   "unexpected frame type from worker"});
        }
      } catch (const std::exception& e) {
        return fail(pab::Error{pab::ErrorCode::kBusError,
                               std::string("malformed worker frame: ") +
                                   e.what()});
      }
    }
  }

  reap_workers(workers, /*force=*/false);
  if (!pending.empty())
    return pab::Error{pab::ErrorCode::kTimeout,
                      "campaign interrupted after max_shards shards "
                      "(progress checkpointed; re-run with resume)"};
  return std::move(fold).finish();
}

}  // namespace pab::campaign
