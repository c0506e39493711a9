/// \file wal_test.cc
/// \brief Crash-safety tests for the binary WAL (storage/wal.h): delta
/// round trips with hostile payloads, torn-tail recovery at every byte
/// offset, corrupt-frame handling, append-after-crash, the zero fill a
/// writer keeps ahead of its appends, and the codec sniff that keeps the
/// CSV delta-log readable.

#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "storage/io_util.h"

namespace certfix {
namespace {

/// One delta of every kind, with payloads the CSV codec would choke on:
/// commas, quotes, newlines, NULs, empty fields, long strings.
std::vector<Delta> HostileDeltas() {
  std::vector<Delta> out;
  Delta d;
  d.kind = DeltaKind::kInsert;
  d.fields = {"a,b", "\"quoted\"", ""};
  out.push_back(d);
  d.kind = DeltaKind::kUpdate;
  d.row = 0;
  d.fields = {"line\nbreak", std::string("nul\0byte", 8),
              std::string(3000, 'x')};
  out.push_back(d);
  d.kind = DeltaKind::kDelete;
  d.row = 12345678901234ull;
  d.fields.clear();
  out.push_back(d);
  d.kind = DeltaKind::kMasterInsert;
  d.row = 0;
  d.fields = {"m1", "m2"};
  out.push_back(d);
  d.kind = DeltaKind::kMasterUpdate;
  d.row = 7;
  d.fields = {"", ""};
  out.push_back(d);
  d.kind = DeltaKind::kMasterDelete;
  d.row = 1;
  d.fields.clear();
  out.push_back(d);
  return out;
}

void ExpectDeltasEqual(const Delta& got, const Delta& want,
                       const std::string& label) {
  EXPECT_EQ(static_cast<int>(got.kind), static_cast<int>(want.kind))
      << label;
  EXPECT_EQ(got.row, want.row) << label;
  ASSERT_EQ(got.fields.size(), want.fields.size()) << label;
  for (size_t i = 0; i < want.fields.size(); ++i) {
    EXPECT_EQ(got.fields[i], want.fields[i]) << label << " field " << i;
  }
}

std::string WriteWal(const std::string& name,
                     const std::vector<Delta>& deltas) {
  std::string path = ::testing::TempDir() + "/" + name;
  Result<std::unique_ptr<storage::WalWriter>> writer =
      storage::WalWriter::Create(path);
  EXPECT_TRUE(writer.ok()) << writer.status();
  for (const Delta& d : deltas) {
    EXPECT_TRUE((*writer)->Append(d).ok());
  }
  EXPECT_EQ((*writer)->records_appended(), deltas.size());
  return path;
}

std::string ReadFileOrDie(const std::string& path) {
  Result<std::string> bytes = storage::ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok());
  return *bytes;
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(WalTest, RoundTripAllKindsWithHostilePayloads) {
  std::vector<Delta> deltas = HostileDeltas();
  std::string path = WriteWal("roundtrip.wal", deltas);

  Result<std::unique_ptr<storage::WalReader>> reader =
      storage::WalReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  Delta got;
  for (size_t i = 0; i < deltas.size(); ++i) {
    Result<bool> more = (*reader)->Next(&got);
    ASSERT_TRUE(more.ok()) << more.status();
    ASSERT_TRUE(*more) << "record " << i;
    ExpectDeltasEqual(got, deltas[i], "record " + std::to_string(i));
  }
  Result<bool> end = (*reader)->Next(&got);
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(*end);
  EXPECT_EQ((*reader)->records_read(), deltas.size());
  EXPECT_EQ((*reader)->discarded_bytes(), 0u);
}

TEST(WalTest, ScanReportsRecordBoundaries) {
  std::vector<Delta> deltas = HostileDeltas();
  std::string path = WriteWal("scan.wal", deltas);
  Result<storage::WalScan> scan = storage::ScanWal(path);
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_EQ(scan->boundaries.size(), deltas.size() + 1);
  EXPECT_EQ(scan->boundaries.front(), 16u);  // header size
  EXPECT_EQ(scan->boundaries.back(), ReadFileOrDie(path).size());
  for (size_t i = 1; i < scan->boundaries.size(); ++i) {
    EXPECT_GT(scan->boundaries[i], scan->boundaries[i - 1]);
  }
  EXPECT_EQ(scan->discarded_bytes, 0u);
}

TEST(WalTest, TruncationAtEveryByteRecoversTheIntactPrefix) {
  std::vector<Delta> deltas = HostileDeltas();
  std::string path = WriteWal("trunc.wal", deltas);
  std::string bytes = ReadFileOrDie(path);
  Result<storage::WalScan> scan = storage::ScanWal(path);
  ASSERT_TRUE(scan.ok());
  const std::vector<uint64_t>& bounds = scan->boundaries;

  std::string mutant_path = ::testing::TempDir() + "/trunc_mut.wal";
  for (size_t len = bounds.front(); len <= bytes.size(); ++len) {
    WriteRaw(mutant_path, bytes.substr(0, len));
    Result<std::unique_ptr<storage::WalReader>> reader =
        storage::WalReader::Open(mutant_path);
    ASSERT_TRUE(reader.ok()) << "len " << len << ": " << reader.status();
    // Expected intact record count: boundaries at or below len.
    size_t want = 0;
    while (want + 1 < bounds.size() && bounds[want + 1] <= len) ++want;
    Delta got;
    size_t read = 0;
    for (;;) {
      Result<bool> more = (*reader)->Next(&got);
      ASSERT_TRUE(more.ok()) << "len " << len;
      if (!*more) break;
      ExpectDeltasEqual(got, deltas[read],
                        "len " + std::to_string(len) + " record " +
                            std::to_string(read));
      ++read;
    }
    EXPECT_EQ(read, want) << "len " << len;
    EXPECT_EQ((*reader)->discarded_bytes(), len - bounds[want])
        << "len " << len;
  }
}

TEST(WalTest, CorruptPayloadByteDropsTheTail) {
  std::vector<Delta> deltas = HostileDeltas();
  std::string path = WriteWal("flip.wal", deltas);
  std::string bytes = ReadFileOrDie(path);
  Result<storage::WalScan> scan = storage::ScanWal(path);
  ASSERT_TRUE(scan.ok());
  // Flip a byte inside record 2's frame: records 0-1 survive, the rest
  // is a corrupt tail.
  uint64_t target = scan->boundaries[2] + 9;
  std::string mutant = bytes;
  mutant[target] = static_cast<char>(mutant[target] ^ 0xFF);
  std::string mutant_path = ::testing::TempDir() + "/flip_mut.wal";
  WriteRaw(mutant_path, mutant);

  Result<std::unique_ptr<storage::WalReader>> reader =
      storage::WalReader::Open(mutant_path);
  ASSERT_TRUE(reader.ok());
  Delta got;
  size_t read = 0;
  for (;;) {
    Result<bool> more = (*reader)->Next(&got);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ++read;
  }
  EXPECT_EQ(read, 2u);
  EXPECT_EQ((*reader)->tail_offset(), scan->boundaries[2]);
  EXPECT_GT((*reader)->discarded_bytes(), 0u);
}

TEST(WalTest, CorruptHeaderFailsLoudly) {
  std::string path = WriteWal("hdr.wal", HostileDeltas());
  std::string bytes = ReadFileOrDie(path);
  bytes[3] = static_cast<char>(bytes[3] ^ 0x01);
  WriteRaw(path, bytes);
  EXPECT_FALSE(storage::WalReader::Open(path).ok());
  EXPECT_FALSE(storage::ScanWal(path).ok());
  uint64_t valid = 0;
  EXPECT_FALSE(storage::WalWriter::OpenForAppend(path, {}, &valid).ok());
}

TEST(WalTest, CrcValidButUnparseablePayloadFailsLoudly) {
  // A frame whose CRC matches but whose payload is garbage is tampering
  // or a format bug, never a crash artifact — it must NOT be treated as
  // a clean tail.
  std::string path = ::testing::TempDir() + "/garbage.wal";
  {
    Result<std::unique_ptr<storage::WalWriter>> writer =
        storage::WalWriter::Create(path);
    ASSERT_TRUE(writer.ok());
  }
  std::string bytes = ReadFileOrDie(path);
  std::string payload = "\xFF\x01\x02";  // kind 255 is no DeltaKind
  storage::PutU32(&bytes, static_cast<uint32_t>(payload.size()));
  storage::PutU32(&bytes, storage::Crc32(payload.data(), payload.size()));
  bytes += payload;
  WriteRaw(path, bytes);

  Result<std::unique_ptr<storage::WalReader>> reader =
      storage::WalReader::Open(path);
  ASSERT_TRUE(reader.ok());
  Delta got;
  Result<bool> more = (*reader)->Next(&got);
  ASSERT_FALSE(more.ok());
  EXPECT_EQ(more.status().code(), StatusCode::kParseError);
}

TEST(WalTest, OpenForAppendTruncatesTornTailAndContinues) {
  std::vector<Delta> deltas = HostileDeltas();
  std::string path = WriteWal("append.wal", deltas);
  std::string bytes = ReadFileOrDie(path);
  Result<storage::WalScan> scan = storage::ScanWal(path);
  ASSERT_TRUE(scan.ok());
  // Tear the last record in half.
  uint64_t cut =
      (scan->boundaries[deltas.size() - 1] + scan->boundaries.back()) / 2;
  WriteRaw(path, bytes.substr(0, cut));

  uint64_t valid = 0;
  Result<std::unique_ptr<storage::WalWriter>> writer =
      storage::WalWriter::OpenForAppend(path, {}, &valid);
  ASSERT_TRUE(writer.ok()) << writer.status();
  std::unique_ptr<storage::WalWriter> appender =
      std::move(writer).ValueOrDie();
  EXPECT_EQ(valid, deltas.size() - 1);
  EXPECT_EQ(appender->tail_offset(), scan->boundaries[deltas.size() - 1]);

  Delta extra;
  extra.kind = DeltaKind::kDelete;
  extra.row = 99;
  ASSERT_TRUE(appender->Append(extra).ok());
  appender.reset();  // close before reading

  Result<std::unique_ptr<storage::WalReader>> reader =
      storage::WalReader::Open(path);
  ASSERT_TRUE(reader.ok());
  Delta got;
  std::vector<Delta> want(deltas.begin(), deltas.end() - 1);
  want.push_back(extra);
  for (size_t i = 0; i < want.size(); ++i) {
    Result<bool> more = (*reader)->Next(&got);
    ASSERT_TRUE(more.ok());
    ASSERT_TRUE(*more);
    ExpectDeltasEqual(got, want[i], "after append, record " +
                                        std::to_string(i));
  }
  Result<bool> end = (*reader)->Next(&got);
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(*end);
  EXPECT_EQ((*reader)->discarded_bytes(), 0u);
}

/// Reads every intact record of `path`, expecting a clean tail.
std::vector<Delta> ReadAllClean(const std::string& path) {
  std::vector<Delta> out;
  Result<std::unique_ptr<storage::WalReader>> reader =
      storage::WalReader::Open(path);
  EXPECT_TRUE(reader.ok()) << reader.status();
  if (!reader.ok()) return out;
  Delta got;
  for (;;) {
    Result<bool> more = (*reader)->Next(&got);
    EXPECT_TRUE(more.ok()) << more.status();
    if (!more.ok() || !*more) break;
    out.push_back(got);
  }
  EXPECT_EQ((*reader)->discarded_bytes(), 0u) << path;
  return out;
}

TEST(WalTest, OpenWriterKeepsZeroFillThatReadsAsCleanTail) {
  std::vector<Delta> deltas = HostileDeltas();
  std::string path = ::testing::TempDir() + "/fill.wal";
  std::string image = ::testing::TempDir() + "/fill_crash.wal";
  {
    Result<std::unique_ptr<storage::WalWriter>> writer =
        storage::WalWriter::Create(path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (const Delta& d : deltas) ASSERT_TRUE((*writer)->Append(d).ok());
    // What a crash now would leave on disk: the records, then zeros.
    std::string bytes = ReadFileOrDie(path);
    ASSERT_GT(bytes.size(), (*writer)->tail_offset());
    EXPECT_EQ(bytes.size() % storage::kWalFillBytes, 0u);
    WriteRaw(image, bytes);

    Result<storage::WalScan> scan = storage::ScanWal(image);
    ASSERT_TRUE(scan.ok()) << scan.status();
    EXPECT_EQ(scan->boundaries.size(), deltas.size() + 1);
    EXPECT_EQ(scan->tail_offset, (*writer)->tail_offset());
    EXPECT_EQ(scan->fill_bytes, bytes.size() - scan->tail_offset);
    EXPECT_EQ(scan->discarded_bytes, 0u);
  }
  // Closing truncates the fill: the file ends at its last record.
  Result<storage::WalScan> closed = storage::ScanWal(path);
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed->fill_bytes, 0u);
  EXPECT_EQ(closed->tail_offset, ReadFileOrDie(path).size());

  std::vector<Delta> got = ReadAllClean(image);
  ASSERT_EQ(got.size(), deltas.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ExpectDeltasEqual(got[i], deltas[i], "record " + std::to_string(i));
  }

  // Recovery appends over the fill, not after it.
  uint64_t valid = 0;
  Result<std::unique_ptr<storage::WalWriter>> reopened =
      storage::WalWriter::OpenForAppend(image, {}, &valid);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  std::unique_ptr<storage::WalWriter> appender =
      std::move(reopened).ValueOrDie();
  EXPECT_EQ(valid, deltas.size());
  EXPECT_EQ(appender->tail_offset(), closed->tail_offset);
  Delta extra;
  extra.kind = DeltaKind::kDelete;
  extra.row = 42;
  ASSERT_TRUE(appender->Append(extra).ok());
  appender.reset();  // close before reading
  got = ReadAllClean(image);
  ASSERT_EQ(got.size(), deltas.size() + 1);
  ExpectDeltasEqual(got.back(), extra, "appended over the fill");
}

TEST(WalTest, FillGrowsAheadOfLargeAppends) {
  // One record longer than a fill step: the writer fills past it.
  std::string path = ::testing::TempDir() + "/fill_grow.wal";
  Delta big;
  big.kind = DeltaKind::kInsert;
  big.fields = {std::string(storage::kWalFillBytes + 100, 'y')};
  {
    Result<std::unique_ptr<storage::WalWriter>> writer =
        storage::WalWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(big).ok());
    ASSERT_TRUE((*writer)->Append(big).ok());
    Result<storage::WalScan> scan = storage::ScanWal(path);
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan->boundaries.size(), 3u);
    EXPECT_GE(scan->fill_bytes, 8u);
    EXPECT_EQ(scan->discarded_bytes, 0u);
  }
  std::vector<Delta> got = ReadAllClean(path);
  ASSERT_EQ(got.size(), 2u);
  ExpectDeltasEqual(got[1], big, "second big record");
}

TEST(WalTest, ZeroTailShorterThanAFrameHeaderIsTorn) {
  // The writer never leaves 1-7 bytes of fill, so such a tail is the
  // start of a torn frame — for instance a length field whose low byte
  // is zero.
  std::string path = WriteWal("short_zero.wal", HostileDeltas());
  std::string bytes = ReadFileOrDie(path);
  for (size_t n = 1; n < 8; ++n) {
    WriteRaw(path, bytes + std::string(n, '\0'));
    Result<storage::WalScan> scan = storage::ScanWal(path);
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan->tail_offset, bytes.size()) << n;
    EXPECT_EQ(scan->fill_bytes, 0u) << n;
    EXPECT_EQ(scan->discarded_bytes, n) << n;
  }
  // Zeros followed by anything else are torn too, fill-length or not.
  WriteRaw(path, bytes + std::string(16, '\0') + "x");
  Result<storage::WalScan> scan = storage::ScanWal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->fill_bytes, 0u);
  EXPECT_EQ(scan->discarded_bytes, 17u);
}

TEST(WalTest, OpenDeltaLogSniffsBothCodecs) {
  SchemaPtr schema = Schema::Make("T", std::vector<std::string>{"a", "b"});

  // Binary WAL codec.
  Delta bin;
  bin.kind = DeltaKind::kUpdate;
  bin.row = 3;
  bin.fields = {"x,y", "line\nbreak"};
  std::string wal_path = WriteWal("sniff.wal", {bin});
  Result<std::unique_ptr<DeltaSource>> wal_src =
      storage::OpenDeltaLog(schema, schema, wal_path);
  ASSERT_TRUE(wal_src.ok()) << wal_src.status();
  Delta got;
  Result<bool> more = (*wal_src)->Next(&got);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(*more);
  ExpectDeltasEqual(got, bin, "wal codec");

  // CSV text codec (same DeltaSource interface).
  std::string csv_path = ::testing::TempDir() + "/sniff.deltas";
  {
    std::ofstream f(csv_path);
    f << "# comment\nU,3,\"x,y\",plain\nD,0\n";
  }
  Result<std::unique_ptr<DeltaSource>> csv_src =
      storage::OpenDeltaLog(schema, schema, csv_path);
  ASSERT_TRUE(csv_src.ok()) << csv_src.status();
  more = (*csv_src)->Next(&got);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(*more);
  EXPECT_EQ(static_cast<int>(got.kind),
            static_cast<int>(DeltaKind::kUpdate));
  EXPECT_EQ(got.row, 3u);
  ASSERT_EQ(got.fields.size(), 2u);
  EXPECT_EQ(got.fields[0], "x,y");
  more = (*csv_src)->Next(&got);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(*more);
  EXPECT_EQ(static_cast<int>(got.kind),
            static_cast<int>(DeltaKind::kDelete));

  // Missing file is a clean error for either codec.
  EXPECT_FALSE(
      storage::OpenDeltaLog(schema, schema, csv_path + ".nope").ok());
}

}  // namespace
}  // namespace certfix
