// The append-only line journal behind campaign checkpoint sidecars
// (fault/checkpoint.*) and the serve cache's disk shards (serve/cache.*).
//
// A journal file is a header line followed by records, one per line. A
// line counts only once it ends in '\n', so a crash mid-append leaves at
// most one unterminated tail, which no reader accepts. Reading walks the
// lines in order, lets the caller accept or reject each one, and stops at
// the first rejected or unterminated line: what it kept is a byte prefix
// of the file. Opening for append cuts the file back to that prefix (when
// nothing was kept, it truncates the file and writes the header), so a
// torn or foreign tail can never swallow the lines appended after it.
//
// Durability: each append is one fwrite plus fflush, so a line reaches
// the OS at once and survives the process being killed. fsync runs every
// `fsync_interval` appends (<= 0: only at close) and at close, never at
// open — a header holds no records, so a header-only file resumes exactly
// like a missing one. An I/O error warns once on stderr and disables the
// journal; its owner (a campaign, a server) keeps running without it.
//
// One writer per file: the cut at open assumes nobody else appends.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>

namespace flopsim::obs {
class Counter;
}  // namespace flopsim::obs

namespace flopsim::fault {

/// 16 lowercase hex digits of `v`: spec keys, sidecar names, shard keys.
std::string hex16(std::uint64_t v);

// Record parsers. Each consumes one token from the front of `s` and
// returns false when the token is not there.
bool take(std::string_view& s, std::string_view literal);
/// Decimal digits (no sign, no overflow).
bool take_u64(std::string_view& s, std::uint64_t* v);
/// Exactly 16 hex digits, the width hex16 writes (either case reads).
bool take_hex16(std::string_view& s, std::uint64_t* v);

class Journal {
 public:
  /// Sees one line without its '\n'; returns false to stop reading there.
  using LineFn = std::function<bool(std::string_view line)>;

  /// Read `path`: its first line goes to `header`, each later line to
  /// `record`. Returns the bytes kept (the accepted lines, '\n'
  /// included) — 0 when the file is missing or its header is rejected.
  static std::size_t read(const std::string& path, const LineFn& header,
                          const LineFn& record);

  /// Open `path` for appending after its first `keep` bytes (a read()
  /// result). `keep` == 0 truncates the file and writes `header`, one
  /// line with its '\n'. Parent directories are created as needed. Each
  /// fsync adds one to `fsyncs` when given.
  Journal(std::string path, std::size_t keep, std::string_view header,
          long fsync_interval, obs::Counter* fsyncs = nullptr);
  /// fsync (when anything is unsynced) and close.
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  bool ok() const { return file_ != nullptr; }

  /// Append one line, its '\n' included. False when the journal is (or
  /// just became) disabled.
  bool append(std::string_view line);

  /// fsync the appends made since the last one.
  void sync();

 private:
  void fail(const char* what, const std::string& why);

  std::string path_;
  std::FILE* file_ = nullptr;
  long fsync_interval_;
  long unsynced_ = 0;
  obs::Counter* fsyncs_;
};

}  // namespace flopsim::fault
