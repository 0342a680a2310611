#include "store/archive_stream_writer.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "io/byte_io.hpp"
#include "io/checksum.hpp"

namespace bwaver {

namespace {

constexpr std::size_t kFlushThreshold = std::size_t{1} << 20;

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw IoError("ArchiveStreamWriter: " + what + ": " + path + ": " + std::strerror(errno));
}

/// fsync on the containing directory makes the rename itself durable.
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // best effort: some filesystems refuse directory opens
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

ArchiveStreamWriter::ArchiveStreamWriter(std::string path, std::uint32_t format_version,
                                         std::vector<std::string> section_names)
    : path_(std::move(path)),
      temp_path_(path_ + ".tmp"),
      format_version_(format_version),
      section_names_(std::move(section_names)) {
  if (format_version_ < kArchiveVersionMin || format_version_ > kArchiveVersionLatest) {
    throw std::invalid_argument("ArchiveStreamWriter: unsupported format version " +
                                std::to_string(format_version_));
  }
  if (section_names_.empty()) {
    throw std::invalid_argument("ArchiveStreamWriter: no sections declared");
  }
  fd_ = ::open(temp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) fail("cannot open", temp_path_);
  // The header region's size depends only on the declared names; reserve it
  // with zeros now and back-fill the rendered header in finish().
  std::vector<ArchiveSectionPlan> placeholder;
  placeholder.reserve(section_names_.size());
  for (const std::string& name : section_names_) placeholder.push_back({name, 0, 0});
  buffer_.assign(archive_payload_start(placeholder), 0);
}

ArchiveStreamWriter::~ArchiveStreamWriter() {
  if (!finished_) abort();
}

void ArchiveStreamWriter::begin_section(const std::string& name) {
  if (finished_ || in_section_) {
    throw std::logic_error("ArchiveStreamWriter: begin_section out of sequence");
  }
  if (sections_.size() >= section_names_.size() ||
      section_names_[sections_.size()] != name) {
    throw std::logic_error("ArchiveStreamWriter: section '" + name +
                           "' does not match the declared order");
  }
  // Flat (v3+) sections start on 64-byte file offsets (render_archive_header
  // computes the same rounded offsets from the section lengths); v1/v2
  // sections follow one another unpadded.
  const std::uint64_t pos = bytes_written();
  const std::uint64_t start =
      format_version_ >= 3 ? (pos + kSectionAlign - 1) & ~(kSectionAlign - 1) : pos;
  buffer_.insert(buffer_.end(), start - pos, 0);
  section_start_ = start;
  section_crc_ = 0;
  in_section_ = true;
}

void ArchiveStreamWriter::write_section(const std::string& name,
                                        const std::function<void(ByteWriter&)>& render) {
  begin_section(name);
  ByteWriter payload([this](std::span<const std::uint8_t> data) { append(data); });
  render(payload);
  payload.flush();
  end_section();
}

void ArchiveStreamWriter::append(std::span<const std::uint8_t> data) {
  if (!in_section_) throw std::logic_error("ArchiveStreamWriter: append outside section");
  section_crc_ = crc32_ieee(data, section_crc_);
  if (data.size() >= kFlushThreshold) {
    // A bulk array is written as it lies instead of through the buffer.
    flush();
    write_all(data);
    offset_ += data.size();
    return;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
  if (buffer_.size() >= kFlushThreshold) flush();
}

void ArchiveStreamWriter::append_u32(std::uint32_t v) {
  std::uint8_t bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  append(bytes);
}

void ArchiveStreamWriter::append_u64(std::uint64_t v) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  append(bytes);
}

void ArchiveStreamWriter::append_raw_u32(std::span<const std::uint32_t> data) {
  append({reinterpret_cast<const std::uint8_t*>(data.data()), data.size_bytes()});
}

void ArchiveStreamWriter::append_raw_u64(std::span<const std::uint64_t> data) {
  append({reinterpret_cast<const std::uint8_t*>(data.data()), data.size_bytes()});
}

void ArchiveStreamWriter::pad_section_to(std::size_t alignment) {
  if (!in_section_ || alignment == 0) return;
  const std::uint64_t section_bytes = bytes_written() - section_start_;
  const std::uint64_t rem = section_bytes % alignment;
  if (rem == 0) return;
  const std::vector<std::uint8_t> zeros(alignment - rem, 0);
  append(zeros);
}

void ArchiveStreamWriter::end_section() {
  if (!in_section_) throw std::logic_error("ArchiveStreamWriter: end_section outside section");
  sections_.push_back({section_names_[sections_.size()],
                       bytes_written() - section_start_, section_crc_});
  in_section_ = false;
}

void ArchiveStreamWriter::finish() {
  if (finished_ || in_section_ || sections_.size() != section_names_.size()) {
    throw std::logic_error("ArchiveStreamWriter: finish with unwritten sections");
  }
  flush();
  const std::vector<std::uint8_t> header = render_archive_header(format_version_, sections_);
  write_at(0, header);
  if (::fsync(fd_) != 0) fail("fsync failed", temp_path_);
  if (::close(fd_) != 0) {
    fd_ = -1;
    fail("close failed", temp_path_);
  }
  fd_ = -1;
  if (std::rename(temp_path_.c_str(), path_.c_str()) != 0) fail("rename failed", path_);
  fsync_parent_dir(path_);
  finished_ = true;
}

void ArchiveStreamWriter::flush() {
  write_all(buffer_);
  offset_ += buffer_.size();
  buffer_.clear();
}

void ArchiveStreamWriter::write_all(std::span<const std::uint8_t> data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd_, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write failed", temp_path_);
    }
    done += static_cast<std::size_t>(n);
  }
}

void ArchiveStreamWriter::write_at(std::uint64_t file_offset,
                                   std::span<const std::uint8_t> data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::pwrite(fd_, data.data() + done, data.size() - done,
                               static_cast<off_t>(file_offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("pwrite failed", temp_path_);
    }
    done += static_cast<std::size_t>(n);
  }
}

void ArchiveStreamWriter::abort() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  ::unlink(temp_path_.c_str());
}

}  // namespace bwaver
