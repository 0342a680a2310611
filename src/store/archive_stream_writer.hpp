// The one index-archive writer: every format version (v1's unaligned
// sections, v3+'s 64-byte-aligned flat ones) streams through it.
//
// Section names are declared up front (the header size, and therefore
// every payload offset, depends only on them), payloads are appended
// section by section with running CRCs, and finish() back-fills the header
// rendered by render_archive_header(). A payload is never held whole:
// write_section() renders it through a ByteWriter that drains into the file
// as it grows, and the blockwise constructor appends its suffix array a
// chunk at a time. write_index_archive (store/index_archive.hpp) and the
// blockwise builder both write through this class, so their archives are
// byte-identical by construction.
//
// Crash safety: all bytes go to `path + ".tmp"`; finish() fsyncs the file,
// renames it over `path`, and fsyncs the directory. Destroying the writer
// without finish() unlinks the temp file, and a hard crash leaves at most
// a stale ".tmp" beside an untouched previous archive.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "io/byte_io.hpp"
#include "store/index_archive.hpp"

namespace bwaver {

class ArchiveStreamWriter {
 public:
  /// Opens `path + ".tmp"` and reserves the header region. `section_names`
  /// fixes the section order; every declared section must be written, in
  /// order, before finish(). Sections of v3+ archives start on 64-byte file
  /// offsets; those of v1/v2 follow one another unpadded.
  ArchiveStreamWriter(std::string path, std::uint32_t format_version,
                      std::vector<std::string> section_names);
  ~ArchiveStreamWriter();

  ArchiveStreamWriter(const ArchiveStreamWriter&) = delete;
  ArchiveStreamWriter& operator=(const ArchiveStreamWriter&) = delete;

  /// Writes the next declared section whole: `render` fills a ByteWriter
  /// whose bytes stream into the archive as they are written (its pad_to
  /// aligns relative to the section's start).
  void write_section(const std::string& name, const std::function<void(ByteWriter&)>& render);

  /// Starts the next declared section. Throws if `name` is not the next
  /// undeclared-section name.
  void begin_section(const std::string& name);

  void append(std::span<const std::uint8_t> data);
  void append_u32(std::uint32_t v);
  void append_u64(std::uint64_t v);
  /// Raw little-endian element words, as ByteWriter::raw_u32 writes them.
  void append_raw_u32(std::span<const std::uint32_t> data);
  void append_raw_u64(std::span<const std::uint64_t> data);
  /// Zero padding to `alignment` relative to the current section's start
  /// (ByteWriter::pad_to within a per-section buffer).
  void pad_section_to(std::size_t alignment);

  void end_section();

  /// Writes the header, fsyncs, atomically renames the temp file onto
  /// `path`, and fsyncs the directory. The writer is unusable afterwards.
  void finish();

  /// Total archive bytes (header + padding + payloads) written so far.
  std::uint64_t bytes_written() const noexcept { return offset_ + buffer_.size(); }

 private:
  void flush();
  /// Appends `data` at the end of the temp file.
  void write_all(std::span<const std::uint8_t> data);
  void write_at(std::uint64_t file_offset, std::span<const std::uint8_t> data);
  void abort() noexcept;

  std::string path_;
  std::string temp_path_;
  std::uint32_t format_version_ = 0;
  std::vector<std::string> section_names_;
  std::vector<ArchiveSectionPlan> sections_;  ///< completed sections
  int fd_ = -1;
  std::vector<std::uint8_t> buffer_;
  std::uint64_t offset_ = 0;         ///< file offset of the first unflushed byte
  std::uint64_t section_start_ = 0;  ///< absolute offset of the open section
  std::uint32_t section_crc_ = 0;
  bool in_section_ = false;
  bool finished_ = false;
};

}  // namespace bwaver
