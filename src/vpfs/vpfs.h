// VPFS — Virtual Private File System (paper §III-D "Trusted Reuse";
// Weinhold & Härtig, EuroSys'08, plus jVPFS-style journaling, ATC'11).
//
// "The legacy stack takes care of actually storing file contents and
// managing the storage medium, but it never handles plaintext data. The
// VPFS wrapper guarantees confidentiality and integrity of all file system
// data and metadata by means of encryption and message authentication
// codes."
//
// Guarantees against a fully compromised legacy::LegacyFilesystem:
//  * confidentiality — every stored byte is AES-CTR ciphertext; keys are
//    derived at format time and kept only in sealed state;
//  * integrity — every block carries an HMAC bound to (file id, block
//    index, version); metadata is MACed as a whole; any tamper =>
//    Errc::tamper_detected;
//  * freshness — sealed state embeds a monotonic counter mirrored in the
//    machine's on-chip NV counter, so rolling back both data AND sealed
//    state to a consistent old snapshot is still detected;
//  * crash consistency — jVPFS-style commit journal: sync() is atomic;
//    a crash at any injected crash point recovers to the last committed
//    state on mount.
//
// The sealing substrate binds all of this to the code identity of the
// component using the VPFS: only the same measurement on the same device
// can unseal the master keys.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "legacy/filesystem.h"
#include "substrate/substrate.h"
#include "util/result.h"
#include "util/types.h"

namespace lateral::vpfs {

constexpr std::size_t kVpfsBlockSize = 4096;

/// Crash-injection points inside sync() for recovery testing.
enum class CrashPoint : std::uint8_t {
  none,
  after_data_blocks,    // data written, no new metadata yet
  after_meta_write,     // new metadata staged, not committed
  after_journal_commit, // journal committed, seal not yet updated
};

struct VpfsStats {
  std::uint64_t blocks_encrypted = 0;
  std::uint64_t blocks_decrypted = 0;
  std::uint64_t mac_failures = 0;
  std::uint64_t syncs = 0;
  /// Blocks that crossed to/from the disk domain by grant-region descriptor
  /// instead of an owned-buffer copy (attach_block_plane).
  std::uint64_t zero_copy_blocks = 0;
};

class Vpfs {
 public:
  /// Create a fresh VPFS inside `backing` under `prefix`. Master keys come
  /// from the substrate-sealed state; `domain` is the trusted component that
  /// owns this file system.
  static Result<std::unique_ptr<Vpfs>> format(
      legacy::LegacyFilesystem& backing,
      substrate::IsolationSubstrate& substrate, substrate::DomainId domain,
      const std::string& prefix, BytesView key_seed);

  /// Mount an existing VPFS: unseal state, verify freshness (NV counter)
  /// and metadata integrity, recover from an interrupted sync if needed.
  static Result<std::unique_ptr<Vpfs>> mount(
      legacy::LegacyFilesystem& backing,
      substrate::IsolationSubstrate& substrate, substrate::DomainId domain,
      const std::string& prefix);

  // --- File interface (plaintext only ever exists in here) ----------------
  Status create(const std::string& name);
  bool exists(const std::string& name) const;
  Status remove(const std::string& name);
  Result<std::size_t> size(const std::string& name) const;
  std::vector<std::string> list() const;
  Status write(const std::string& name, std::size_t offset, BytesView data);
  Result<Bytes> read(const std::string& name, std::size_t offset,
                     std::size_t len) const;
  Status rename(const std::string& from, const std::string& to);

  /// Full integrity walk: verify every block of every file against its
  /// recorded MAC. Cheap way to audit a suspicious backing store without
  /// waiting for reads to trip over damage.
  struct FsckReport {
    std::size_t files_checked = 0;
    std::size_t blocks_checked = 0;
    std::vector<std::string> damaged_files;
    bool clean() const { return damaged_files.empty(); }
  };
  FsckReport fsck() const;

  /// Commit all state: data blocks are already durable; this writes and
  /// MACs the metadata, journals the commit, reseals the root and bumps the
  /// hardware counter. Atomic with respect to the injected crash points.
  Status sync();

  // --- Zero-copy block plane ----------------------------------------------
  /// Route block transit through a grant region shared with the (untrusted)
  /// disk-driver domain `disk`. Stored blocks are then handed over by
  /// descriptor: one staging copy of the ciphertext into the region plus a
  /// constant in-place access on the far side, instead of an owned-buffer
  /// copy per block. The region must span at least one stored block
  /// (kVpfsBlockSize + MAC) and have been created between this VPFS's
  /// domain and `disk` by the composer. Security is unchanged: only
  /// ciphertext+MAC ever enters the shared region, so the disk domain
  /// learns nothing it could not already snoop.
  Status attach_block_plane(substrate::DomainId disk,
                            substrate::RegionId region);
  /// Back to the owned-buffer copy path (also the right response to
  /// stale_epoch after the disk domain was restarted: detach, re-wire,
  /// re-attach).
  void detach_block_plane();
  bool block_plane_attached() const { return block_region_ != 0; }

  const VpfsStats& stats() const { return stats_; }

  /// Inject a crash at the given point of the NEXT sync (testing hook).
  void set_crash_point(CrashPoint point) { crash_point_ = point; }

 private:
  struct BlockMeta {
    std::uint64_t version = 0;
    crypto::Digest mac{};
    /// Written since the last commit (shadow slot holds the new version).
    bool dirty = false;
  };
  struct FileMeta {
    std::uint64_t file_id = 0;
    std::size_t size = 0;
    std::vector<BlockMeta> blocks;
  };

  Vpfs(legacy::LegacyFilesystem& backing,
       substrate::IsolationSubstrate& substrate, substrate::DomainId domain,
       std::string prefix);

  std::string data_path(std::uint64_t file_id) const;
  std::string meta_path() const { return prefix_ + "/meta"; }
  std::string staged_meta_path() const { return prefix_ + "/meta.new"; }
  std::string journal_path() const { return prefix_ + "/journal"; }
  std::string seal_path() const { return prefix_ + "/root.seal"; }

  std::uint64_t block_nonce(std::uint64_t file_id, std::size_t block,
                            std::uint64_t version) const;
  crypto::Digest block_mac(std::uint64_t file_id, std::size_t block,
                           std::uint64_t version, BytesView ciphertext) const;

  Result<Bytes> load_block(const FileMeta& file, std::size_t block) const;
  Status store_block(FileMeta& file, std::size_t block, BytesView plaintext);

  Bytes serialize_meta() const;
  Status deserialize_meta(BytesView blob);

  void set_keys(BytesView keys);

  /// Seal {keys, meta digest, commit seq} and persist.
  Status write_seal(const crypto::Digest& meta_digest);

  legacy::LegacyFilesystem& backing_;
  substrate::IsolationSubstrate& substrate_;
  substrate::DomainId domain_;
  std::string prefix_;

  /// Zero-copy block plane (0 = detached, the default copy path).
  substrate::DomainId disk_domain_ = substrate::kInvalidDomain;
  substrate::RegionId block_region_ = 0;

  /// enc (16 B) || mac (32 B) key bytes, kept for the sealed root state;
  /// enc_key_ and mac_key_ are expanded from them once by set_keys().
  Bytes raw_keys_;
  crypto::Aes128 enc_key_{crypto::Aes128Key{}};
  crypto::Hmac mac_key_{BytesView{}};  // keyed prototype, copied per MAC
  std::map<std::string, FileMeta> files_;
  std::uint64_t next_file_id_ = 1;
  std::uint64_t commit_seq_ = 0;
  /// Legacy files of removed VPFS files; deleted after the next commit so
  /// an interrupted sync can still recover the previous state.
  std::vector<std::string> pending_deletes_;
  mutable VpfsStats stats_;
  CrashPoint crash_point_ = CrashPoint::none;
};

}  // namespace lateral::vpfs
