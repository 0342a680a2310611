#include "io/fastq.hpp"

#include <cstring>

#include "io/gzip.hpp"

namespace bwaver {

namespace {
[[noreturn]] void fail(std::size_t record, const std::string& what) {
  throw IoError("FASTQ record " + std::to_string(record) + ": " + what);
}
}  // namespace

bool FastqScanner::read_line(std::size_t& pos, std::string_view& line) const noexcept {
  if (pos >= text_.size()) return false;
  const char* start = text_.data() + pos;
  const std::size_t left = text_.size() - pos;
  const auto* eol = static_cast<const char*>(std::memchr(start, '\n', left));
  std::size_t length = left;
  if (eol != nullptr) {
    length = static_cast<std::size_t>(eol - start);
    pos += length + 1;
  } else {
    // An unterminated last line is a line only at the end of the input.
    if (!final_) return false;
    pos = text_.size();
  }
  if (length != 0 && start[length - 1] == '\r') --length;
  line = std::string_view(start, length);
  return true;
}

bool FastqScanner::next(FastqView& record) {
  std::size_t pos = pos_;
  std::string_view line;
  // Blank separator lines are tolerated (and consumed) before a header.
  for (;;) {
    if (!read_line(pos, line)) return false;
    if (!line.empty()) break;
    pos_ = pos;
  }
  if (line.front() != '@') {
    fail(record_, "expected '@' header, got '" + std::string(line.substr(0, 20)) + "'");
  }
  record.name = line.substr(1);

  // Before the end of the input, a record that runs past the text is left
  // for the next scan; at the end it is truncated.
  if (!read_line(pos, line)) {
    if (!final_) return false;
    fail(record_, "truncated (no sequence)");
  }
  record.sequence = line;

  const bool separator = read_line(pos, line);
  if (!separator && !final_) return false;
  if (!separator || line.empty() || line.front() != '+') {
    fail(record_, "missing '+' separator");
  }

  if (!read_line(pos, line)) {
    if (!final_) return false;
    fail(record_, "truncated (no quality)");
  }
  record.quality = line;
  if (record.quality.size() != record.sequence.size()) {
    fail(record_, "quality length " + std::to_string(record.quality.size()) +
                      " != sequence length " + std::to_string(record.sequence.size()));
  }
  pos_ = pos;
  ++record_;
  return true;
}

std::string_view fastq_text(std::span<const std::uint8_t> data,
                            std::vector<std::uint8_t>& inflated) {
  if (looks_like_gzip(data)) {
    inflated = gzip_decompress(data);
    data = inflated;
  }
  return {reinterpret_cast<const char*>(data.data()), data.size()};
}

std::string_view fastq_read_name(std::string_view header) {
  // A plain loop: find_first_of tests each byte against the set through a
  // search call of its own, several times slower on names this short.
  std::size_t end = 0;
  while (end < header.size() && header[end] != ' ' && header[end] != '\t') ++end;
  const std::string_view name = header.substr(0, end);
  if (name.empty()) {
    throw IoError("FASTQ header '" + std::string(header.substr(0, 20)) +
                  "' has no read name");
  }
  return name;
}

std::vector<FastqRecord> parse_fastq(std::span<const std::uint8_t> data) {
  std::vector<std::uint8_t> inflated;
  FastqScanner scanner(fastq_text(data, inflated));
  std::vector<FastqRecord> records;
  FastqView view;
  while (scanner.next(view)) {
    records.push_back(FastqRecord{std::string(view.name), std::string(view.sequence),
                                  std::string(view.quality)});
  }
  return records;
}

std::vector<FastqRecord> read_fastq(const std::string& path) {
  const auto data = read_file(path);
  return parse_fastq(data);
}

std::string format_fastq(std::span<const FastqRecord> records) {
  std::string out;
  for (const auto& record : records) {
    out += '@';
    out += record.name;
    out += '\n';
    out += record.sequence;
    out += "\n+\n";
    out += record.quality;
    out += '\n';
  }
  return out;
}

void write_fastq(const std::string& path, std::span<const FastqRecord> records,
                 bool gzipped) {
  const std::string text = format_fastq(records);
  if (gzipped) {
    const auto compressed = gzip_compress(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
    write_file(path, compressed);
  } else {
    write_file(path, text);
  }
}

}  // namespace bwaver
