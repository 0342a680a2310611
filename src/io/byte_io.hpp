// Little-endian binary (de)serialization helpers and whole-file I/O, used by
// the pipeline to persist step-1 outputs (BWT + SA) and by the index
// save/load paths.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace bwaver {

/// Raised on malformed or truncated inputs across the io module.
class IoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends scalars/vectors to a growing byte buffer (always little-endian).
/// A writer made with a sink is a stream instead: it hands its bytes to the
/// sink in order and holds at most about kDrainBytes of them (a bulk array
/// goes to the sink straight from the caller's memory), so a payload is
/// written without ever being held whole. size() and pad_to() count every
/// byte written either way.
class ByteWriter {
 public:
  using Sink = std::function<void(std::span<const std::uint8_t>)>;

  /// Buffered bytes at which a streaming writer drains to its sink.
  static constexpr std::size_t kDrainBytes = std::size_t{1} << 20;

  ByteWriter() = default;
  explicit ByteWriter(Sink sink) : sink_(std::move(sink)) {}

  void u8(std::uint8_t v) { buffer_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void bytes(std::span<const std::uint8_t> data);

  /// Length-prefixed (u64) byte vector.
  void vec_u8(std::span<const std::uint8_t> data);
  /// Length-prefixed (u64) u32 vector.
  void vec_u32(std::span<const std::uint32_t> data);
  /// Length-prefixed (u64) string.
  void str(const std::string& s);

  /// Raw element bytes with no length prefix (archive v3 flat payloads;
  /// the element count is written separately by the caller). Host must be
  /// little-endian — the v3 writer enforces that once up front.
  void raw_u8(std::span<const std::uint8_t> data) { bytes(data); }
  void raw_u32(std::span<const std::uint32_t> data);
  void raw_u64(std::span<const std::uint64_t> data);

  /// Appends zero bytes until size() is a multiple of `alignment`.
  void pad_to(std::size_t alignment);

  /// Bytes written so far, drained ones included.
  std::size_t size() const noexcept { return drained_ + buffer_.size(); }

  /// Hands the buffered bytes to the sink (a no-op without one). A
  /// streaming writer's owner calls it once the payload is complete.
  void flush();

  /// The buffered bytes: the whole payload of a writer without a sink.
  const std::vector<std::uint8_t>& data() const noexcept { return buffer_; }
  std::vector<std::uint8_t> take() { return std::move(buffer_); }

 private:
  /// Drains a streaming writer's buffer once it holds kDrainBytes.
  void drain_if_full() {
    if (sink_ && buffer_.size() >= kDrainBytes) flush();
  }

  std::vector<std::uint8_t> buffer_;
  Sink sink_;
  std::size_t drained_ = 0;
};

/// Reads scalars/vectors back; throws IoError on truncation. When `context`
/// and `base_offset` are supplied (archive section readers), errors name the
/// section and the absolute file offset of the failure.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data,
                      std::string context = {}, std::uint64_t base_offset = 0)
      : data_(data), context_(std::move(context)), base_offset_(base_offset) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  void bytes(std::span<std::uint8_t> out);

  std::vector<std::uint8_t> vec_u8();
  std::vector<std::uint32_t> vec_u32();
  std::string str();

  /// Zero-copy views over the underlying buffer (archive v3 flat payloads).
  /// The span aliases the reader's buffer: it is valid only as long as the
  /// backing bytes are. The u32/u64 variants require the current position to
  /// be naturally aligned relative to the buffer start — guaranteed by the
  /// v3 layout (align_to(64) before every array) whenever the buffer itself
  /// is at least 8-byte aligned (mmap pages / read_file vectors are).
  std::span<const std::uint8_t> span_u8(std::size_t count);
  std::span<const std::uint32_t> span_u32(std::size_t count);
  std::span<const std::uint64_t> span_u64(std::size_t count);

  /// Skips forward to the next multiple of `alignment` (pad bytes written by
  /// ByteWriter::pad_to); throws IoError when that runs past the end.
  void align_to(std::size_t alignment);

  std::size_t offset() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return pos_ == data_.size(); }

 private:
  void need(std::size_t count) const {
    if (count > data_.size() - pos_) fail_truncated();
  }
  [[noreturn]] void fail_truncated() const;
  [[noreturn]] void fail_misaligned(std::size_t element_size) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::string context_;
  std::uint64_t base_offset_ = 0;
};

/// Whole-file helpers; throw IoError on failure.
std::vector<std::uint8_t> read_file(const std::string& path);
void write_file(const std::string& path, std::span<const std::uint8_t> data);
void write_file(const std::string& path, const std::string& data);

/// Crash-safe whole-file write: the data goes to `path + ".tmp"`, is fsynced,
/// and is renamed over `path` in one atomic step. A reader racing the write —
/// or opening the file after a mid-write crash — sees either the complete old
/// content or the complete new content, never a torn mix. The stale ".tmp"
/// a crash can leave behind is overwritten by the next successful write.
void write_file_atomic(const std::string& path, std::span<const std::uint8_t> data);

}  // namespace bwaver
