#include "io/byte_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace bwaver {

void ByteWriter::u16(std::uint16_t v) {
  buffer_.push_back(static_cast<std::uint8_t>(v));
  buffer_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  if (sink_ && data.size() >= kDrainBytes) {
    // A bulk array goes to the sink as it lies, never through the buffer.
    flush();
    sink_(data);
    drained_ += data.size();
    return;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
  drain_if_full();
}

void ByteWriter::vec_u8(std::span<const std::uint8_t> data) {
  u64(data.size());
  bytes(data);
}

void ByteWriter::vec_u32(std::span<const std::uint32_t> data) {
  u64(data.size());
  for (std::uint32_t v : data) {
    u32(v);
    drain_if_full();
  }
}

void ByteWriter::str(const std::string& s) {
  u64(s.size());
  buffer_.insert(buffer_.end(), s.begin(), s.end());
  drain_if_full();
}

void ByteWriter::raw_u32(std::span<const std::uint32_t> data) {
  bytes({reinterpret_cast<const std::uint8_t*>(data.data()), data.size_bytes()});
}

void ByteWriter::raw_u64(std::span<const std::uint64_t> data) {
  bytes({reinterpret_cast<const std::uint8_t*>(data.data()), data.size_bytes()});
}

void ByteWriter::pad_to(std::size_t alignment) {
  if (alignment == 0) return;
  const std::size_t rem = size() % alignment;
  if (rem != 0) buffer_.resize(buffer_.size() + (alignment - rem), 0);
  drain_if_full();
}

void ByteWriter::flush() {
  if (!sink_ || buffer_.empty()) return;
  sink_(buffer_);
  drained_ += buffer_.size();
  buffer_.clear();
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

void ByteReader::bytes(std::span<std::uint8_t> out) {
  need(out.size());
  std::memcpy(out.data(), data_.data() + pos_, out.size());
  pos_ += out.size();
}

std::vector<std::uint8_t> ByteReader::vec_u8() {
  const std::uint64_t count = u64();
  need(count);
  std::vector<std::uint8_t> out(data_.begin() + pos_, data_.begin() + pos_ + count);
  pos_ += count;
  return out;
}

std::vector<std::uint32_t> ByteReader::vec_u32() {
  const std::uint64_t count = u64();
  if (count > remaining() / 4) fail_truncated();
  std::vector<std::uint32_t> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) out.push_back(u32());
  return out;
}

std::string ByteReader::str() {
  const std::uint64_t count = u64();
  need(count);
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), count);
  pos_ += count;
  return out;
}

std::span<const std::uint8_t> ByteReader::span_u8(std::size_t count) {
  need(count);
  const std::span<const std::uint8_t> out = data_.subspan(pos_, count);
  pos_ += count;
  return out;
}

std::span<const std::uint32_t> ByteReader::span_u32(std::size_t count) {
  if (count > remaining() / sizeof(std::uint32_t)) fail_truncated();
  const auto* base = data_.data() + pos_;
  if (reinterpret_cast<std::uintptr_t>(base) % alignof(std::uint32_t) != 0) {
    fail_misaligned(sizeof(std::uint32_t));
  }
  pos_ += count * sizeof(std::uint32_t);
  return {reinterpret_cast<const std::uint32_t*>(base), count};
}

std::span<const std::uint64_t> ByteReader::span_u64(std::size_t count) {
  if (count > remaining() / sizeof(std::uint64_t)) fail_truncated();
  const auto* base = data_.data() + pos_;
  if (reinterpret_cast<std::uintptr_t>(base) % alignof(std::uint64_t) != 0) {
    fail_misaligned(sizeof(std::uint64_t));
  }
  pos_ += count * sizeof(std::uint64_t);
  return {reinterpret_cast<const std::uint64_t*>(base), count};
}

void ByteReader::align_to(std::size_t alignment) {
  if (alignment == 0) return;
  const std::size_t rem = pos_ % alignment;
  if (rem != 0) {
    need(alignment - rem);
    pos_ += alignment - rem;
  }
}

void ByteReader::fail_truncated() const {
  if (context_.empty()) throw IoError("ByteReader: truncated input");
  throw IoError("ByteReader: truncated input in section '" + context_ +
                "' at file offset " + std::to_string(base_offset_ + pos_));
}

void ByteReader::fail_misaligned(std::size_t element_size) const {
  std::string where =
      context_.empty() ? std::string() : " in section '" + context_ + "'";
  throw IoError("ByteReader: misaligned " +
                std::to_string(element_size * 8) + "-bit array" + where +
                " at file offset " + std::to_string(base_offset_ + pos_));
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("read_file: cannot open " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(size));
  if (size > 0 && !in.read(reinterpret_cast<char*>(data.data()), size)) {
    throw IoError("read_file: short read from " + path);
  }
  return data;
}

void write_file(const std::string& path, std::span<const std::uint8_t> data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("write_file: cannot open " + path);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) throw IoError("write_file: short write to " + path);
}

void write_file(const std::string& path, const std::string& data) {
  write_file(path, std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

void write_file_atomic(const std::string& path, std::span<const std::uint8_t> data) {
  const std::string temp = path + ".tmp";
  const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw IoError("write_file_atomic: cannot open " + temp + ": " + std::strerror(errno));
  }
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(temp.c_str());
      throw IoError("write_file_atomic: short write to " + temp + ": " + std::strerror(err));
    }
    written += static_cast<std::size_t>(n);
  }
  // fsync before rename: the rename must not become durable before the data,
  // or a power cut could surface a complete-looking but empty file.
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(temp.c_str());
    throw IoError("write_file_atomic: fsync failed for " + temp + ": " + std::strerror(errno));
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(temp.c_str());
    throw IoError("write_file_atomic: rename to " + path + " failed: " + std::strerror(err));
  }
}

}  // namespace bwaver
