#include "io/chunk_reader.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "io/gzip.hpp"
#include "util/timer.hpp"

namespace bwaver {

std::size_t MemorySource::read(std::uint8_t* out, std::size_t size) {
  const std::size_t take = std::min(size, bytes_.size() - pos_);
  if (take == 0) return 0;
  std::memcpy(out, bytes_.data() + pos_, take);
  pos_ += take;
  return take;
}

FileSource::FileSource(const std::string& path) : file_(path, std::ios::binary) {
  if (!file_) throw IoError("cannot open " + path);
  file_.seekg(0, std::ios::end);
  left_ = static_cast<std::size_t>(file_.tellg());
  file_.seekg(0, std::ios::beg);
}

std::size_t FileSource::read(std::uint8_t* out, std::size_t size) {
  file_.read(reinterpret_cast<char*>(out), static_cast<std::streamsize>(size));
  if (file_.bad()) throw IoError("read error");
  const auto got = static_cast<std::size_t>(file_.gcount());
  left_ -= std::min(left_, got);
  return got;
}

ChunkReader::ChunkReader(ByteSource& source, std::size_t chunk_bytes)
    : source_(source), chunk_bytes_(chunk_bytes) {
  if (chunk_bytes_ == 0) throw std::invalid_argument("ChunkReader: chunk_bytes must be >= 1");
}

void ChunkReader::fill(std::size_t want) {
  want = std::min(want, end_ + source_.remaining());
  if (buffer_.size() < want) buffer_.resize(want);
  while (end_ < want) {
    const std::size_t got = source_.read(buffer_.data() + end_, want - end_);
    if (got == 0) break;  // the input ended before its size said it would
    end_ += got;
  }
  at_end_ = end_ < want || source_.remaining() == 0;
}

void ChunkReader::inflate_whole() {
  // The compressed bytes grow as they arrive, never to the declared size up
  // front: a client cannot make the server allocate its length in advance.
  std::vector<std::uint8_t> compressed(buffer_.begin(),
                                       buffer_.begin() + static_cast<std::ptrdiff_t>(end_));
  buffer_ = std::vector<std::uint8_t>();
  std::size_t filled = compressed.size();
  while (source_.remaining() > 0) {
    if (filled == compressed.size()) {
      compressed.resize(filled + std::min(source_.remaining(), std::max(filled, chunk_bytes_)));
    }
    const std::size_t got = source_.read(compressed.data() + filled, compressed.size() - filled);
    if (got == 0) break;
    filled += got;
  }
  compressed.resize(filled);
  const WallTimer timer;
  buffer_ = gzip_decompress(compressed);
  inflate_ms_ = timer.milliseconds();
  gzip_ = true;
  head_ = end_ = 0;
  at_end_ = false;
}

bool ChunkReader::read_more() {
  if (at_end_) return false;
  if (gzip_) {
    end_ = std::min(buffer_.size(), end_ + chunk_bytes_);
    at_end_ = end_ == buffer_.size();
    return true;
  }
  // Keep the unread tail at the front, then read the next chunk after it.
  if (head_ != 0) {
    std::memmove(buffer_.data(), buffer_.data() + head_, end_ - head_);
    end_ -= head_;
    head_ = 0;
  }
  fill(end_ + chunk_bytes_);
  if (!started_) {
    started_ = true;
    // The gzip magic is two bytes, so a one-byte chunk waits for a second.
    fill(2);
    if (looks_like_gzip(std::span<const std::uint8_t>(buffer_.data(), end_))) {
      inflate_whole();
      return read_more();
    }
  }
  return true;
}

}  // namespace bwaver
