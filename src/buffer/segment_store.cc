#include "buffer/segment_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace lstore {

SegmentStore::~SegmentStore() { Close(); }

Status SegmentStore::Open(const std::string& path) {
  Close();
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    return Status::IOError("cannot open segment store: " + path);
  }
  struct ::stat st;
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    fd_ = -1;
    return Status::IOError("cannot stat segment store: " + path);
  }
  path_ = path;
  durable_ = true;
  end_.store(static_cast<uint64_t>(st.st_size), std::memory_order_release);
  return Status::OK();
}

Status SegmentStore::OpenReadOnly(const std::string& path) {
  Close();
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) {
    return Status::IOError("cannot open segment store read-only: " + path);
  }
  struct ::stat st;
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    fd_ = -1;
    return Status::IOError("cannot stat segment store: " + path);
  }
  path_ = path;
  durable_ = false;
  end_.store(static_cast<uint64_t>(st.st_size), std::memory_order_release);
  return Status::OK();
}

Status SegmentStore::OpenTemp() {
  Close();
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                     "/lstore_spill_XXXXXX";
  std::string buf(tmpl);
  fd_ = ::mkstemp(buf.data());
  if (fd_ < 0) {
    return Status::IOError("cannot create spill file: " + tmpl);
  }
  ::unlink(buf.c_str());  // anonymous: reclaimed automatically on close
  path_ = buf;
  durable_ = false;
  end_.store(0, std::memory_order_release);
  return Status::OK();
}

void SegmentStore::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  durable_ = false;
  end_.store(0, std::memory_order_release);
}

Status SegmentStore::Append(std::string_view payload, uint64_t* offset) {
  if (fd_ < 0) return Status::IOError("segment store not open");
  std::lock_guard<std::mutex> g(append_mu_);
  uint64_t off = end_.load(std::memory_order_relaxed);
  size_t done = 0;
  while (done < payload.size()) {
    ssize_t n = ::pwrite(fd_, payload.data() + done, payload.size() - done,
                         static_cast<off_t>(off + done));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      // Nothing references [off, ...) yet; the next append retries the
      // same offset, so a short write cannot corrupt recorded ranges.
      return Status::IOError("segment store append failed");
    }
    done += static_cast<size_t>(n);
  }
  // Publish the new end only after the bytes are fully written:
  // Contains() must never cover a half-written payload.
  end_.store(off + payload.size(), std::memory_order_release);
  if (offset != nullptr) *offset = off;
  return Status::OK();
}

Status SegmentStore::ReadAt(uint64_t offset, uint64_t length,
                            std::string* out) const {
  out->resize(length);
  return ReadAt(offset, length, out->data());
}

Status SegmentStore::ReadAt(uint64_t offset, uint64_t length,
                            char* out) const {
  if (fd_ < 0) return Status::IOError("segment store not open");
  if (!Contains(offset, length)) {
    return Status::Corruption("segment store read out of bounds");
  }
  size_t done = 0;
  while (done < length) {
    ssize_t n = ::pread(fd_, out + done, length - done,
                        static_cast<off_t>(offset + done));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::IOError("segment store read failed");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

bool SegmentStore::Contains(uint64_t offset, uint64_t length) const {
  uint64_t end = end_.load(std::memory_order_acquire);
  return offset <= end && length <= end - offset;
}

Status SegmentStore::Sync() {
  if (fd_ < 0) return Status::IOError("segment store not open");
  if (::fsync(fd_) != 0) {
    return Status::IOError("segment store fsync failed: " + path_);
  }
  return Status::OK();
}

}  // namespace lstore
