#include "campaign/manifest.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace pab::campaign {

namespace fs = std::filesystem;

namespace {

pab::Expected<bool> write_file(const std::string& path,
                               const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return pab::Error{pab::ErrorCode::kBusError, "cannot open " + path};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return pab::Error{pab::ErrorCode::kBusError, "write failed: " + path};
  return true;
}

}  // namespace

pab::Expected<bool> CheckpointStore::open(std::uint64_t fingerprint,
                                          std::uint64_t shard_count,
                                          bool resume) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec)
    return pab::Error{pab::ErrorCode::kBusError,
                      "cannot create checkpoint dir " + dir_};
  done_.clear();

  if (!resume || !fs::exists(manifest_path())) {
    // Fresh campaign: drop any previous progress so stale shard files from an
    // unrelated run can never be folded in.
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
      const std::string name = entry.path().filename().string();
      if (name == "manifest" || name.rfind("shard-", 0) == 0)
        fs::remove(entry.path(), ec);
    }
    std::ostringstream header;
    header << "pab-campaign v1\n";
    header << "fingerprint " << fingerprint << "\n";
    header << "shards " << shard_count << "\n";
    return write_file(manifest_path(), header.str());
  }

  std::ifstream in(manifest_path());
  if (!in)
    return pab::Error{pab::ErrorCode::kBusError,
                      "cannot read manifest in " + dir_};
  std::string line;
  if (!std::getline(in, line) || line != "pab-campaign v1")
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "manifest: missing 'pab-campaign v1' header"};
  std::uint64_t seen_fingerprint = 0;
  std::uint64_t seen_shards = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "fingerprint") {
      fields >> seen_fingerprint;
    } else if (key == "shards") {
      fields >> seen_shards;
    } else if (key == "done") {
      std::uint64_t shard = 0;
      fields >> shard;
      if (!fields.fail()) done_.insert(shard);
    } else {
      return pab::Error{pab::ErrorCode::kInvalidArgument,
                        "manifest: unknown directive: " + key};
    }
  }
  if (seen_fingerprint != fingerprint)
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "manifest: campaign fingerprint mismatch (the spec "
                      "changed since this checkpoint was written)"};
  if (seen_shards != shard_count)
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "manifest: shard count mismatch"};
  return true;
}

pab::Expected<bool> CheckpointStore::store(const ShardOutput& out) {
  ByteWriter w;
  out.serialize(w);
  const std::string path = shard_path(out.shard);
  const std::string tmp = path + ".tmp";
  auto ok = write_file(tmp, w.bytes());
  if (!ok.ok()) return ok;
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec)
    return pab::Error{pab::ErrorCode::kBusError, "cannot rename " + tmp};
  std::ofstream manifest(manifest_path(), std::ios::app);
  if (!manifest)
    return pab::Error{pab::ErrorCode::kBusError,
                      "cannot append to manifest in " + dir_};
  manifest << "done " << out.shard << "\n";
  manifest.flush();
  if (!manifest)
    return pab::Error{pab::ErrorCode::kBusError, "manifest append failed"};
  done_.insert(out.shard);
  return true;
}

pab::Expected<ShardOutput> CheckpointStore::load(std::uint64_t shard) const {
  std::ifstream in(shard_path(shard), std::ios::binary);
  if (!in)
    return pab::Error{pab::ErrorCode::kBusError,
                      "cannot read " + shard_path(shard)};
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  auto out = ShardOutput::deserialize(bytes);
  if (!out.ok())
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "corrupt shard file: " + out.error().detail};
  if (out.value().shard != shard)
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "shard file names the wrong shard"};
  return out;
}

}  // namespace pab::campaign
