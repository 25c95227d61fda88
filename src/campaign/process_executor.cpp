#include "campaign/process_executor.hpp"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "campaign/protocol.hpp"

namespace pab::campaign {

namespace {

struct Worker {
  pid_t pid = -1;
  int to_fd = -1;    // serve -> worker stdin
  int from_fd = -1;  // worker stdout -> serve
};

pab::Expected<Worker> spawn_worker(const std::string& binary) {
  // Every serve-side end is close-on-exec from birth, so no worker inherits
  // another's pipe: an inherited write end would keep a sibling's stdin
  // open past our close, the sibling would never see EOF, and reaping it
  // would deadlock in waitpid.
  int down[2];  // serve -> worker
  int up[2];    // worker -> serve
  if (::pipe2(down, O_CLOEXEC) != 0)
    return pab::Error{pab::ErrorCode::kBusError, "pipe failed"};
  if (::pipe2(up, O_CLOEXEC) != 0) {
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
    // Child: frames on stdin/stdout (dup2 clears close-on-exec on them),
    // stderr inherited for diagnostics; exec closes every other end.
    ::dup2(down[0], 0);
    ::dup2(up[1], 1);
    ::execl(binary.c_str(), binary.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(down[0]);
  ::close(up[1]);
  return Worker{pid, down[1], up[0]};
}

// Close a worker's pipes (EOF: an idle worker exits 0) and wait for it;
// `force` kills it first.
void reap(const Worker& w, bool force) {
  if (force) ::kill(w.pid, SIGKILL);
  ::close(w.to_fd);
  ::close(w.from_fd);
  int status = 0;
  while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
  }
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

// The pab_worker processes of one run.  Each participant of the campaign's
// runner takes an idle worker (spawning one, and sending it the spec, when
// none is idle), runs one shard on it and gives it back; so a run spawns at
// most one worker per participant.
class WorkerPool {
 public:
  WorkerPool(std::string binary, std::string spec_frame)
      : binary_(std::move(binary)), spec_frame_(std::move(spec_frame)) {}
  ~WorkerPool() { close(/*force=*/true); }
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // One request and one reply.  A worker that replied goes back to the
  // pool; one that died or sent a malformed frame is reaped, and the shard
  // fails with kBusError.
  pab::Expected<ShardOutput> run(const Shard& shard) {
    auto taken = take();
    if (!taken.ok()) return taken.error();
    const Worker worker = taken.value();
    std::optional<pab::Expected<ShardOutput>> reply;
    if (write_frame(worker.to_fd, MsgType::kRunShard, encode_shard(shard))
            .ok()) {
      auto frame = read_frame(worker.from_fd);
      if (frame.ok()) reply = decode_reply(frame.value(), shard.index);
    }
    if (!reply.has_value()) {
      reap(worker, /*force=*/true);
      return pab::Error{pab::ErrorCode::kBusError,
                        "worker for shard " + std::to_string(shard.index) +
                            " died"};
    }
    const std::lock_guard lock(mutex_);
    idle_.push_back(worker);
    return std::move(reply).value();
  }

  // Reap every worker; once the run is over, all of them are idle.
  void close(bool force) {
    for (const Worker& w : idle_) reap(w, force);
    idle_.clear();
  }

 private:
  pab::Expected<Worker> take() {
    std::unique_lock lock(mutex_);
    if (!idle_.empty()) {
      const Worker w = idle_.back();
      idle_.pop_back();
      return w;
    }
    // Spawns run one at a time, under the mutex.
    auto spawned = spawn_worker(binary_);
    lock.unlock();
    // A worker that cannot take the spec fails its first exchange.
    if (spawned.ok())
      (void)write_frame(spawned.value().to_fd, MsgType::kSpec, spec_frame_);
    return spawned;
  }

  const std::string binary_;
  const std::string spec_frame_;
  std::mutex mutex_;          // guards idle_ and serializes spawns
  std::vector<Worker> idle_;
};

}  // namespace

pab::Expected<CampaignResult> ProcessExecutor::run(
    const CampaignSpec& spec, const RunOptions& options) const {
  if (options.worker_binary.empty())
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "ProcessExecutor: options.worker_binary is required"};
  auto threads_ok = check_worker_threads(options.worker_threads);
  if (!threads_ok.ok()) return threads_ok.error();

  SpecPayload hello;
  hello.worker_threads = std::max(1u, options.worker_threads);
  hello.fingerprint = spec.fingerprint();
  hello.spec_text = spec.serialize();
  const SigpipeGuard sigpipe;
  WorkerPool pool(options.worker_binary, encode_spec(hello));
  auto result = run_campaign(
      spec, options, options.workers,
      [&pool](const CampaignSpec&, const Shard& shard,
              const sim::BatchRunner&) { return pool.run(shard); });
  pool.close(/*force=*/!result.ok());
  return result;
}

}  // namespace pab::campaign
