#include "fault/journal.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>

#ifndef _WIN32
#include <unistd.h>  // fsync, fileno
#endif

#include "obs/metrics.hpp"

namespace flopsim::fault {

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool take(std::string_view& s, std::string_view literal) {
  if (!s.starts_with(literal)) return false;
  s.remove_prefix(literal.size());
  return true;
}

bool take_u64(std::string_view& s, std::uint64_t* v) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), *v);
  if (ec != std::errc{}) return false;
  s.remove_prefix(static_cast<std::size_t>(end - s.data()));
  return true;
}

bool take_hex16(std::string_view& s, std::uint64_t* v) {
  const char* end16 = s.data() + std::min<std::size_t>(s.size(), 16);
  const auto [end, ec] = std::from_chars(s.data(), end16, *v, 16);
  if (ec != std::errc{} || s.size() < 16 || end != end16) return false;
  s.remove_prefix(16);
  return true;
}

std::size_t Journal::read(const std::string& path, const LineFn& header,
                          const LineFn& record) {
  std::ifstream in(path, std::ios::binary);
  std::string line;
  std::size_t kept = 0;
  // getline sets eof only when the line ran into the end of the file
  // without its '\n': that is the torn tail, never a line.
  while (std::getline(in, line) && !in.eof()) {
    const LineFn& accept = kept == 0 ? header : record;
    if (!accept(line)) break;
    kept += line.size() + 1;
  }
  return kept;
}

Journal::Journal(std::string path, std::size_t keep, std::string_view header,
                 long fsync_interval, obs::Counter* fsyncs)
    : path_(std::move(path)), fsync_interval_(fsync_interval),
      fsyncs_(fsyncs) {
  std::error_code ec;  // best-effort; a failed open is reported below
  const std::filesystem::path parent =
      std::filesystem::path(path_).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  if (keep > 0) {
    std::filesystem::resize_file(path_, keep, ec);  // cut what read() left
    if (ec) {
      fail("cut", ec.message());
      return;
    }
  }
  file_ = std::fopen(path_.c_str(), keep > 0 ? "a" : "w");
  if (file_ == nullptr) {
    fail("open", std::strerror(errno));
    return;
  }
  if (keep == 0 &&
      (std::fwrite(header.data(), 1, header.size(), file_) != header.size() ||
       std::fflush(file_) != 0)) {
    fail("write header", std::strerror(errno));
  }
}

Journal::~Journal() {
  sync();
  if (file_ != nullptr) std::fclose(file_);
}

void Journal::fail(const char* what, const std::string& why) {
  std::fprintf(stderr, "warning: journal %s disabled: %s failed (%s)\n",
               path_.c_str(), what, why.c_str());
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
}

bool Journal::append(std::string_view line) {
  if (file_ == nullptr) return false;
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0) {
    fail("append", std::strerror(errno));
    return false;
  }
  ++unsynced_;
  if (fsync_interval_ > 0 && unsynced_ >= fsync_interval_) sync();
  return ok();
}

void Journal::sync() {
  if (file_ == nullptr || unsynced_ == 0) return;
#ifndef _WIN32
  if (fsync(fileno(file_)) != 0) {
    fail("fsync", std::strerror(errno));
    return;
  }
#endif
  unsynced_ = 0;
  if (fsyncs_ != nullptr) fsyncs_->inc();
}

}  // namespace flopsim::fault
