#ifndef WDL_DURABILITY_WAL_H_
#define WDL_DURABILITY_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"

namespace wdl {

/// When appended log records reach the disk (DESIGN.md §11). The knob
/// trades durability window against append throughput: kNever leaves
/// flushing to the OS (a host crash can lose recent records; a process
/// crash cannot, since write(2) completed), kBatch syncs once per
/// evaluation stage, kAlways syncs every record.
enum class FsyncPolicy : uint8_t {
  kNever = 0,
  kBatch = 1,
  kAlways = 2,
};

const char* FsyncPolicyToString(FsyncPolicy policy);
Result<FsyncPolicy> ParseFsyncPolicy(std::string_view text);

/// CRC-32 (IEEE 802.3 polynomial) over `data`; the per-record and
/// per-snapshot checksum of the durability layer.
uint32_t Crc32(std::string_view data);

/// Append-only writer of length-prefixed, checksummed log frames:
///
///   u32 payload length | u32 CRC-32(payload) | payload bytes
///
/// One WalWriter per open log file; appends go straight to the file
/// descriptor (no buffering beyond the OS page cache), so a process
/// crash after Append returns loses nothing. Not thread-safe — owned
/// by one peer and driven from the thread that runs its stages, like
/// everything else per-peer.
class WalWriter {
 public:
  /// Opens `path` for appending, creating it if absent.
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& path);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  Status Append(std::string_view payload);
  /// fsync(2) the file; the caller implements the FsyncPolicy schedule.
  Status Sync();

  const std::string& path() const { return path_; }
  uint64_t records_written() const { return records_; }
  uint64_t bytes_written() const { return bytes_; }

 private:
  WalWriter(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}
  std::string path_;
  int fd_ = -1;
  uint64_t records_ = 0;
  uint64_t bytes_ = 0;
};

/// Everything a log file yielded on open. `valid_bytes` is the length
/// of the prefix that parsed cleanly; anything past it (a frame cut
/// short by a crash mid-append, or a frame whose CRC does not match)
/// is a torn tail the caller should truncate away before appending.
struct WalReadResult {
  std::vector<std::string> payloads;
  /// Byte offset where payload i's frame starts (offsets[i] <
  /// valid_bytes); lets recovery map records back to file positions.
  std::vector<uint64_t> offsets;
  uint64_t valid_bytes = 0;
  bool torn_tail = false;
  uint64_t dropped_bytes = 0;
};

/// Reads every valid frame of `path`. A missing file is an empty log,
/// not an error (a fresh peer, or a generation whose log was never
/// created before the crash). Corruption never fails the read — it
/// ends it: the result carries the clean prefix plus torn-tail info.
Result<WalReadResult> ReadWalFile(const std::string& path);

// --- small file helpers shared by the WAL and snapshot layers --------

Status TruncateFile(const std::string& path, uint64_t length);
/// Writes `path` via a temp file + rename so readers never observe a
/// half-written file; fsyncs the data and the containing directory.
Status AtomicWriteFile(const std::string& path, std::string_view bytes);
Result<std::string> ReadEntireFile(const std::string& path);
Status SyncDir(const std::string& dir);

}  // namespace wdl

#endif  // WDL_DURABILITY_WAL_H_
