// File replication for availability (paper §III.A: "how many copies of a
// shared file should be distributed in the v-cloud so that other vehicles
// can keep accessing this file even if many vehicles are offline").
//
// Files are chunked and Merkle-rooted (readers verify integrity against the
// owner-published root); the manager keeps `target_replicas` copies on live
// members, re-replicating when churn kills holders. E9 sweeps the target
// against churn to reproduce the availability/overhead trade-off.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "crypto/merkle.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/stats.h"

namespace vcl::vcloud {

struct ReplicationConfig {
  std::size_t target_replicas = 3;
};

struct StoredFile {
  FileId id;
  double size_mb = 0.0;
  crypto::Digest merkle_root{};
  std::vector<std::uint64_t> holders;  // vehicle ids (may include dead ones)
};

class ReplicationManager {
 public:
  using MembershipFn = std::function<std::vector<VehicleId>()>;

  ReplicationManager(MembershipFn membership, ReplicationConfig config,
                     Rng rng)
      : membership_(std::move(membership)), config_(config), rng_(rng) {}

  // Stores a file: computes the Merkle root over `payload` chunks and places
  // `target_replicas` copies on distinct live members (fewer if the cloud is
  // small). Returns the file id.
  FileId store(const crypto::Bytes& payload);

  // Re-replication pass: prune dead holders, copy to new members up to the
  // target. Call once per maintenance round.
  void refresh();

  // A file is available when at least one live member holds it.
  [[nodiscard]] bool available(FileId id) const;
  [[nodiscard]] std::size_t live_replicas(FileId id) const;
  [[nodiscard]] const StoredFile* find(FileId id) const;
  [[nodiscard]] std::size_t file_count() const { return files_.size(); }

  // Maintenance overhead accounting.
  [[nodiscard]] std::size_t repair_copies() const { return repair_copies_; }
  [[nodiscard]] double bytes_copied_mb() const { return mb_copied_; }

 private:
  [[nodiscard]] std::vector<std::uint64_t> live_members() const;

  MembershipFn membership_;
  ReplicationConfig config_;
  Rng rng_;
  std::unordered_map<std::uint64_t, StoredFile> files_;
  std::uint64_t next_file_id_ = 1;
  std::size_t repair_copies_ = 0;
  double mb_copied_ = 0.0;
};

}  // namespace vcl::vcloud
