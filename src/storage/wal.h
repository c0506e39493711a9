/// \file wal.h
/// \brief Crash-safe write-ahead delta log. Every accepted mutation is
/// appended and fsynced here BEFORE it is applied to the engine (the
/// SQLite discipline: append, sync, apply), so recovery = snapshot load +
/// WAL replay reproduces the engine state byte-for-byte.
///
/// On-disk layout (little-endian):
///
/// ```
/// header (16 bytes): magic "CFXWAL1\n", version u32 (=1),
///                    crc u32 over the first 12 bytes
/// record*: payload_len u32, payload_crc u32, payload bytes
/// payload: kind u8 (DeltaKind), row varint, nfields varint,
///          then per field varint length + bytes
/// ```
///
/// Tail discipline: a crash can leave a torn final record (short frame or
/// CRC mismatch). Readers stop cleanly at the first bad frame and report
/// the discarded byte count — the prefix up to there is exactly the set
/// of mutations that were durably applied. A CRC-valid payload that does
/// not parse is NOT a torn tail; it fails loudly (format bug or
/// deliberate tampering, never a crash artifact).
///
/// Zero fill: the writer keeps the file zero-filled ahead of its appends
/// (to the next kWalFillBytes boundary), so an append overwrites blocks
/// that are already allocated and inside the file size, and fdatasync
/// flushes only that data — no size change, no allocation, no journal
/// commit shared with other files' dirty data. Payloads are never empty,
/// so a zero frame header ends the records; a tail of at least one frame
/// header that is all zeros is fill, not a torn record
/// (WalScan::fill_bytes). Closing a writer truncates the fill away, so a
/// closed WAL ends at its last record.
///
/// The CSV delta-log text format (stream/delta_source.h) remains readable
/// as a second codec: OpenDeltaLog sniffs the magic and returns either a
/// WalReader or a DeltaLogSource over the same DeltaSource interface.

#ifndef CERTFIX_STORAGE_WAL_H_
#define CERTFIX_STORAGE_WAL_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "stream/delta_source.h"
#include "util/result.h"

namespace certfix {
namespace storage {

/// Leading bytes of a binary WAL file (also the codec-sniff key).
inline constexpr char kWalMagic[8] = {'C', 'F', 'X', 'W', 'A', 'L', '1',
                                      '\n'};

/// Bytes the writer zero-fills ahead of its appends at a time.
inline constexpr uint64_t kWalFillBytes = 64 * 1024;

struct WalWriterOptions {
  /// fsync after every Append. Off batches syncs into explicit Sync()
  /// calls — faster, but deltas since the last sync may be lost on
  /// crash (they were never acknowledged as durable).
  bool sync_every_append = true;
};

/// \brief Appender. Not thread-safe (the delta stream is single-caller,
/// same contract as DeltaRepairEngine).
class WalWriter {
 public:
  using Options = WalWriterOptions;

  /// Creates a fresh WAL (truncating any existing file), writes the
  /// header and the first zero fill, and syncs both.
  static Result<std::unique_ptr<WalWriter>> Create(const std::string& path,
                                                   Options options = {});
  /// Opens an existing WAL for append: scans it, truncates any torn tail
  /// (so the next record lands on a clean boundary), and positions at
  /// the end of the records; zero fill left by a writer that never
  /// closed is reused. `*valid_records`, if given, receives the intact
  /// count.
  static Result<std::unique_ptr<WalWriter>> OpenForAppend(
      const std::string& path, Options options = {},
      uint64_t* valid_records = nullptr);

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  /// Truncates the zero fill (best effort, unsynced: with or without it
  /// the file reads the same records) and closes the file.
  ~WalWriter();

  /// Appends one record, first extending the zero fill when the record
  /// and one frame header past it would not fit; with sync_every_append
  /// the record is durable when this returns. Telemetry: wal.appends /
  /// wal.append_bytes / wal.append_ns / wal.fsyncs.
  Status Append(const Delta& delta);
  /// fdatasyncs outstanding appends (and any fill extension).
  Status Sync();

  uint64_t records_appended() const { return records_; }
  /// Offset just past the last record (the file size once closed).
  uint64_t tail_offset() const { return offset_; }

 private:
  WalWriter(int fd, uint64_t offset, uint64_t filled, Options options)
      : fd_(fd), offset_(offset), filled_(filled), options_(options) {}
  /// Zero-fills past filled_ up to the first kWalFillBytes boundary at or
  /// after `end`. Unsynced: the next Sync makes it durable.
  Status FillTo(uint64_t end);
  int fd_;
  uint64_t offset_;
  uint64_t filled_;  ///< file size: offset_ plus the zero fill after it
  uint64_t records_ = 0;
  Options options_;
};

/// \brief Replays a WAL as a DeltaSource. Next() returns false at the
/// clean end of the intact prefix; torn tails are discarded silently
/// (check discarded_bytes / tail_offset afterwards).
class WalReader : public DeltaSource {
 public:
  static Result<std::unique_ptr<WalReader>> Open(const std::string& path);

  Result<bool> Next(Delta* delta) override;

  uint64_t records_read() const { return records_; }
  /// Offset of the first byte after the last intact record.
  uint64_t tail_offset() const { return tail_offset_; }
  /// Bytes after tail_offset (a torn or corrupt tail; 0 when clean,
  /// zero fill included).
  uint64_t discarded_bytes() const { return discarded_; }

 private:
  WalReader(std::string bytes, std::string path)
      : bytes_(std::move(bytes)), path_(std::move(path)) {}
  std::string bytes_;
  std::string path_;
  uint64_t pos_ = 0;
  uint64_t tail_offset_ = 0;
  uint64_t records_ = 0;
  uint64_t discarded_ = 0;
  bool done_ = false;
};

/// \brief Structural scan (tests and tools): record boundaries of the
/// intact prefix, the clean tail offset, and discarded tail bytes.
struct WalScan {
  /// boundaries[i] = offset where record i starts; a final entry marks
  /// the clean end, so boundaries.size() == intact records + 1.
  std::vector<uint64_t> boundaries;
  uint64_t tail_offset = 0;
  uint64_t discarded_bytes = 0;
  /// Zero fill after tail_offset left by a writer that never closed
  /// (a clean tail, so discarded_bytes is 0 when this is not).
  uint64_t fill_bytes = 0;
};
Result<WalScan> ScanWal(const std::string& path);

/// \brief Codec sniff: opens `path` as a binary WAL (magic match) or as
/// the CSV delta-log text format, behind one DeltaSource. The returned
/// source owns its underlying stream.
Result<std::unique_ptr<DeltaSource>> OpenDeltaLog(SchemaPtr schema,
                                                  SchemaPtr master_schema,
                                                  const std::string& path);

}  // namespace storage
}  // namespace certfix

#endif  // CERTFIX_STORAGE_WAL_H_
