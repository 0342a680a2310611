// Chunked input: one reader hands out a byte source — a file, a request
// body as it arrives on a socket, or bytes already in memory — as a window
// of text that grows a chunk at a time. A parser scans the window, consumes
// what it took, and leaves a record cut by the window's end for the next
// one, so it holds one chunk (plus that record) instead of the whole input.
// `bwaver map` packs its FASTQ file this way, the server packs /map and
// /jobs bodies into a ReadBatch and /reference bodies into a ReferenceSet,
// and `index build` packs its FASTA file.
#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "io/byte_io.hpp"

namespace bwaver {

/// Bytes read once, in order.
class ByteSource {
 public:
  virtual ~ByteSource() = default;

  /// Reads up to `size` (>= 1) bytes into `out` and returns how many; 0
  /// only at the end of the input. Throws IoError when the bytes cannot be
  /// read.
  virtual std::size_t read(std::uint8_t* out, std::size_t size) = 0;

  /// Bytes still to come: what is left of the bytes in memory, the file or
  /// the declared body. A reader sizes its window and learns the end of the
  /// input from it.
  virtual std::size_t remaining() const noexcept = 0;
};

/// Bytes already in memory, viewed in place.
class MemorySource final : public ByteSource {
 public:
  explicit MemorySource(std::span<const std::uint8_t> bytes) noexcept : bytes_(bytes) {}
  explicit MemorySource(std::string_view text) noexcept
      : bytes_(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()) {}

  std::size_t read(std::uint8_t* out, std::size_t size) override;
  std::size_t remaining() const noexcept override { return bytes_.size() - pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// A file, front to back.
class FileSource final : public ByteSource {
 public:
  /// Throws IoError if the file cannot be opened.
  explicit FileSource(const std::string& path);

  std::size_t read(std::uint8_t* out, std::size_t size) override;
  std::size_t remaining() const noexcept override { return left_; }

 private:
  std::ifstream file_;
  std::size_t left_ = 0;
};

/// Reads a ByteSource in chunks of `chunk_bytes` for a scanner:
///
///   while (reader.read_more()) {
///     FastqScanner scanner(reader.text(), reader.at_end(), records);
///     ... take records ...
///     reader.consume(scanner.consumed());
///   }
///
/// Text a scan leaves unread (a record cut by the chunk end) stays at the
/// front of the next text(). A chunk is never larger than what the source
/// has left, so a small input takes a small window. An input that starts
/// with the gzip magic bytes is read whole and inflated once (the codec has
/// no streaming inflate), then handed out in the same chunks.
class ChunkReader {
 public:
  /// Throws std::invalid_argument for a zero chunk size.
  ChunkReader(ByteSource& source, std::size_t chunk_bytes);

  /// Appends up to chunk_bytes more of the input to text(); false once the
  /// end of the input was already reached. Throws what the source throws,
  /// and GzipError on a bad gzip stream.
  bool read_more();

  /// The text read and not yet consumed.
  std::string_view text() const noexcept {
    return {reinterpret_cast<const char*>(buffer_.data()) + head_, end_ - head_};
  }

  /// True once text() runs to the end of the input.
  bool at_end() const noexcept { return at_end_; }

  /// Drops the first `bytes` of text().
  void consume(std::size_t bytes) noexcept { head_ += bytes; }

  /// The bytes of text() and of the text still to come: a packer reserves
  /// its output from it.
  std::size_t bytes_left() const noexcept {
    return (end_ - head_) + (gzip_ ? buffer_.size() - end_ : source_.remaining());
  }

  /// Milliseconds spent inflating a gzip input (0 for plain text): work on
  /// the text, not a wait for it.
  double inflate_ms() const noexcept { return inflate_ms_; }

 private:
  /// Reads until buffer_ holds `want` bytes or the input ends, and notes
  /// whether it did.
  void fill(std::size_t want);
  /// Reads the rest of the input and inflates all of it into buffer_.
  void inflate_whole();

  ByteSource& source_;
  std::vector<std::uint8_t> buffer_;  ///< plain: the window; gzip: all text
  std::size_t chunk_bytes_;
  std::size_t head_ = 0;
  std::size_t end_ = 0;
  double inflate_ms_ = 0.0;
  bool started_ = false;
  bool gzip_ = false;
  bool at_end_ = false;
};

}  // namespace bwaver
