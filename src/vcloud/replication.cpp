#include "vcloud/replication.h"

#include <algorithm>
#include <unordered_set>

namespace vcl::vcloud {
namespace {

constexpr std::size_t kChunkBytes = 250'000;  // Merkle leaf granularity

}  // namespace

std::vector<std::uint64_t> ReplicationManager::live_members() const {
  std::vector<std::uint64_t> out;
  for (const VehicleId v : membership_()) out.push_back(v.value());
  std::sort(out.begin(), out.end());
  return out;
}

FileId ReplicationManager::store(const crypto::Bytes& payload) {
  StoredFile f;
  f.id = FileId{next_file_id_++};
  f.size_mb = static_cast<double>(payload.size()) / 1e6;

  // Merkle root over fixed-size chunks.
  std::vector<crypto::Bytes> chunks;
  for (std::size_t off = 0; off < payload.size(); off += kChunkBytes) {
    const std::size_t len = std::min(kChunkBytes, payload.size() - off);
    chunks.emplace_back(payload.begin() + static_cast<std::ptrdiff_t>(off),
                        payload.begin() + static_cast<std::ptrdiff_t>(off + len));
  }
  if (chunks.empty()) chunks.push_back({});
  f.merkle_root = crypto::MerkleTree::from_payloads(chunks).root();

  // Initial placement on random distinct live members.
  std::vector<std::uint64_t> members = live_members();
  rng_.shuffle(members);
  const std::size_t n = std::min(config_.target_replicas, members.size());
  f.holders.assign(members.begin(),
                   members.begin() + static_cast<std::ptrdiff_t>(n));
  mb_copied_ += f.size_mb * static_cast<double>(n);

  const FileId id = f.id;
  files_.emplace(id.value(), std::move(f));
  return id;
}

void ReplicationManager::refresh() {
  const std::vector<std::uint64_t> members = live_members();
  const std::unordered_set<std::uint64_t> live(members.begin(), members.end());
  for (auto& [fid, f] : files_) {
    // A vehicle that drove out of the cloud still holds its copy (it may
    // come back); holders are never pruned, only topped up. Repair needs at
    // least one LIVE holder as the copy source.
    const std::unordered_set<std::uint64_t> holding(f.holders.begin(),
                                                    f.holders.end());
    std::size_t live_count = 0;
    for (const std::uint64_t h : f.holders) live_count += live.count(h);
    if (live_count == 0 || live_count >= config_.target_replicas) continue;

    std::vector<std::uint64_t> candidates;
    for (const std::uint64_t m : members) {
      if (holding.count(m) == 0) candidates.push_back(m);
    }
    rng_.shuffle(candidates);
    while (live_count < config_.target_replicas && !candidates.empty()) {
      f.holders.push_back(candidates.back());
      candidates.pop_back();
      ++live_count;
      ++repair_copies_;
      mb_copied_ += f.size_mb;
    }
  }
}

bool ReplicationManager::available(FileId id) const {
  return live_replicas(id) > 0;
}

std::size_t ReplicationManager::live_replicas(FileId id) const {
  auto it = files_.find(id.value());
  if (it == files_.end()) return 0;
  const std::vector<std::uint64_t> members = live_members();
  const std::unordered_set<std::uint64_t> live(members.begin(), members.end());
  std::size_t n = 0;
  for (const std::uint64_t h : it->second.holders) n += live.count(h);
  return n;
}

const StoredFile* ReplicationManager::find(FileId id) const {
  auto it = files_.find(id.value());
  return it == files_.end() ? nullptr : &it->second;
}

}  // namespace vcl::vcloud
