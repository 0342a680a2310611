// FASTQ reading/writing with transparent gzip support.
//
// FastqScanner is the one record scanner: parse_fastq copies its records
// into FastqRecords, and the mapper packs them straight into a ReadBatch
// (mapper/read_batch.hpp) without that copy. FastqFileReader feeds a file
// to the scanner chunk by chunk, so `bwaver map` holds one chunk at a time.
#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "io/byte_io.hpp"

namespace bwaver {

struct FastqRecord {
  std::string name;      ///< without the leading '@'
  std::string sequence;
  std::string quality;   ///< same length as sequence
};

/// One record as views into the scanned text: the header after its '@',
/// the sequence and the quality, each without its line terminator.
struct FastqView {
  std::string_view name;
  std::string_view sequence;
  std::string_view quality;
};

/// Reads FASTQ text one record at a time. Lines end in '\n' (an optional
/// '\r' before it is dropped); blank lines before a header are skipped; a
/// record is an '@' header, a sequence, a '+' line and a quality of the
/// sequence's length. Anything else throws IoError naming the record.
class FastqScanner {
 public:
  /// `text` starts at a record boundary. When `final` is false more input
  /// follows it, so a record whose last line has no '\n' yet is left unread
  /// (see consumed()) rather than taken as truncated. `first_record`
  /// numbers the records in error messages.
  explicit FastqScanner(std::string_view text, bool final = true,
                        std::size_t first_record = 0) noexcept
      : text_(text), final_(final), record_(first_record) {}

  /// Reads the next record; false at the end of the (complete) records.
  bool next(FastqView& record);

  /// Bytes of the text taken by the records read so far, with the blank
  /// lines before them.
  std::size_t consumed() const noexcept { return pos_; }

  /// Bytes of the text not yet consumed.
  std::size_t remaining() const noexcept { return text_.size() - pos_; }

  /// Index of the next record, counting from `first_record`.
  std::size_t record_index() const noexcept { return record_; }

 private:
  /// Reads the line at `pos` and moves past it; false at the end of the
  /// text, or at an unterminated last line when more input follows.
  bool read_line(std::size_t& pos, std::string_view& line) const noexcept;

  std::string_view text_;
  bool final_;
  std::size_t pos_ = 0;
  std::size_t record_;
};

/// The FASTQ text of `data`: `data` itself, or, when it starts with the
/// gzip magic bytes, its members inflated into `inflated`. Throws GzipError
/// on a bad gzip stream.
std::string_view fastq_text(std::span<const std::uint8_t> data,
                            std::vector<std::uint8_t>& inflated);

/// The read name a FASTQ header gives SAM's QNAME: the header up to its
/// first space or tab, as BWA cuts it. Throws IoError when that is empty.
std::string_view fastq_read_name(std::string_view header);

/// Parses FASTQ from an in-memory buffer (gzip detected by magic bytes).
/// Throws IoError on malformed records (bad markers, quality/sequence
/// length mismatch, truncation).
std::vector<FastqRecord> parse_fastq(std::span<const std::uint8_t> data);

/// Reads and parses a FASTQ (or FASTQ.gz) file.
std::vector<FastqRecord> read_fastq(const std::string& path);

/// Reads a FASTQ file in chunks of `chunk_bytes` for a FastqScanner:
///
///   while (reader.read_more()) {
///     FastqScanner scanner(reader.text(), reader.at_end(), records);
///     ... take records ...
///     reader.consume(scanner.consumed());
///   }
///
/// Text a scan leaves unread (a record cut by the chunk end) stays at the
/// front of the next text(), so memory holds one chunk plus one record. A
/// gzip file is inflated whole when opened (the codec has no streaming
/// inflate) and then handed out in the same chunks.
class FastqFileReader {
 public:
  /// Throws IoError if the file cannot be opened, std::invalid_argument
  /// for a zero chunk size.
  FastqFileReader(const std::string& path, std::size_t chunk_bytes);

  /// Appends up to chunk_bytes more of the file to text(); false once the
  /// end of the file was already reached.
  bool read_more();

  /// The text read and not yet consumed.
  std::string_view text() const noexcept {
    return {reinterpret_cast<const char*>(buffer_.data()) + head_, end_ - head_};
  }

  /// True once text() runs to the end of the file.
  bool at_end() const noexcept { return at_end_; }

  /// Drops the first `bytes` of text().
  void consume(std::size_t bytes) noexcept { head_ += bytes; }

 private:
  std::ifstream file_;                ///< closed for gzip input
  std::vector<std::uint8_t> buffer_;  ///< plain: the window; gzip: all text
  std::size_t chunk_bytes_;
  std::size_t head_ = 0;
  std::size_t end_ = 0;
  bool gzip_ = false;
  bool at_end_ = false;
};

std::string format_fastq(std::span<const FastqRecord> records);

void write_fastq(const std::string& path, std::span<const FastqRecord> records,
                 bool gzipped = false);

}  // namespace bwaver
