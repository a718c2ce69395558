#include "obs/json_lines.h"

#include <sys/stat.h>

#include <chrono>
#include <cstdio>

namespace lstore {

uint64_t WallClockMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonLinesFile::JsonLinesFile(std::string path, uint64_t max_bytes)
    : path_(std::move(path)), max_bytes_(max_bytes) {}

void JsonLinesFile::Append(std::string_view line) {
  std::lock_guard<std::mutex> g(mu_);
  if (max_bytes_ > 0) {
    struct ::stat st;
    if (::stat(path_.c_str(), &st) == 0 &&
        static_cast<uint64_t>(st.st_size) >= max_bytes_) {
      // Best effort: a failed rename just lets the file keep growing.
      std::rename(path_.c_str(), (path_ + ".1").c_str());
    }
  }
  std::FILE* f = std::fopen(path_.c_str(), "a");
  if (f == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

}  // namespace lstore
