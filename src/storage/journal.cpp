#include "storage/journal.hpp"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "support/error.hpp"
#include "support/hash.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define HERC_HAVE_FSYNC 1
#endif

namespace herc::storage {

using support::HistoryError;
using support::StorageError;

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t read_u32(std::string_view bytes, std::size_t at) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 1]))
          << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 2]))
          << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 3]))
          << 24);
}

std::uint64_t read_u64(std::string_view bytes, std::size_t at) {
  return static_cast<std::uint64_t>(read_u32(bytes, at)) |
         (static_cast<std::uint64_t>(read_u32(bytes, at + 4)) << 32);
}

std::atomic<detail::IoFaultHook> g_io_fault_hook{nullptr};

/// The hook's verdict on `call` (0 = let it run).
int injected_errno(std::string_view call) {
  const detail::IoFaultHook hook = g_io_fault_hook.load();
  return hook == nullptr ? 0 : hook(call);
}

[[noreturn]] void io_failed(std::string_view call, const std::string& path,
                            int error) {
  throw StorageError("storage: " + std::string(call) + " of '" + path +
                     "' failed: " + std::strerror(error));
}

}  // namespace

namespace detail {

void set_io_fault_hook(IoFaultHook hook) { g_io_fault_hook.store(hook); }

void flush_file(std::FILE* file, const std::string& path) {
  if (const int error = injected_errno("fflush")) {
    io_failed("fflush", path, error);
  }
  if (std::fflush(file) != 0) io_failed("fflush", path, errno);
}

void sync_fd(int fd, const std::string& path) {
  if (const int error = injected_errno("fsync")) {
    io_failed("fsync", path, error);
  }
#ifdef HERC_HAVE_FSYNC
  if (::fsync(fd) != 0) io_failed("fsync", path, errno);
#else
  (void)fd;
#endif
}

}  // namespace detail

std::uint32_t frame_checksum(std::string_view payload) {
  std::string length;
  put_u32(length, static_cast<std::uint32_t>(payload.size()));
  const std::uint64_t h =
      support::fnv1a_append(support::fnv1a(length), payload);
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

ScanResult scan_journal(std::string_view bytes) {
  ScanResult result;
  if (bytes.size() < kJournalHeaderBytes ||
      bytes.substr(0, kJournalMagic.size()) != kJournalMagic) {
    result.torn = !bytes.empty();
    return result;
  }
  result.header_valid = true;
  result.epoch = read_u64(bytes, kJournalMagic.size());
  std::size_t at = kJournalHeaderBytes;
  while (at + kFrameHeaderBytes <= bytes.size()) {
    const std::uint32_t length = read_u32(bytes, at);
    const std::uint32_t check = read_u32(bytes, at + 4);
    if (at + kFrameHeaderBytes + length > bytes.size()) break;
    const std::string_view payload =
        bytes.substr(at + kFrameHeaderBytes, length);
    if (frame_checksum(payload) != check) break;
    result.records.emplace_back(payload);
    at += kFrameHeaderBytes + length;
  }
  result.valid_bytes = at;
  result.torn = at != bytes.size();
  return result;
}

Journal::Journal(std::FILE* file, std::string path, std::uint64_t epoch,
                 std::uint64_t bytes, JournalOptions options)
    : file_(file),
      path_(std::move(path)),
      epoch_(epoch),
      bytes_(bytes),
      options_(options) {}

Journal Journal::create(const std::string& path, std::uint64_t epoch,
                        JournalOptions options) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    throw HistoryError("journal: cannot create '" + path +
                       "': " + std::strerror(errno));
  }
  std::string header(kJournalMagic);
  put_u64(header, epoch);
  try {
    if (std::fwrite(header.data(), 1, header.size(), file) != header.size()) {
      throw StorageError("journal: cannot write header to '" + path + "'");
    }
    detail::flush_file(file, path);
    if (options.sync != SyncPolicy::kNone) {
      detail::sync_fd(::fileno(file), path);
    }
  } catch (...) {
    std::fclose(file);
    throw;
  }
  return Journal(file, path, epoch, header.size(), options);
}

Journal Journal::open(const std::string& path, std::uint64_t epoch,
                      std::uint64_t size, JournalOptions options) {
  // Appending under the wrong epoch would splice records into a journal
  // that extends a different snapshot, so verify the on-disk header first.
  {
    std::FILE* head = std::fopen(path.c_str(), "rb");
    if (head == nullptr) {
      throw HistoryError("journal: cannot open '" + path +
                         "': " + std::strerror(errno));
    }
    char buffer[kJournalHeaderBytes];
    const std::size_t got = std::fread(buffer, 1, sizeof buffer, head);
    std::fclose(head);
    const std::string_view bytes(buffer, got);
    if (got < kJournalHeaderBytes ||
        bytes.substr(0, kJournalMagic.size()) != kJournalMagic) {
      throw HistoryError("journal: '" + path +
                         "' has no valid HERCWAL1 header");
    }
    const std::uint64_t disk_epoch = read_u64(bytes, kJournalMagic.size());
    if (disk_epoch != epoch) {
      throw HistoryError(
          "journal: '" + path + "' is at epoch " +
          std::to_string(disk_epoch) + " but the snapshot expects epoch " +
          std::to_string(epoch) + "; it extends a different snapshot");
    }
  }
  // "ab" appends at the end of file on every write; the caller has already
  // truncated the file to `size` valid bytes.
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    throw HistoryError("journal: cannot open '" + path +
                       "': " + std::strerror(errno));
  }
  return Journal(file, path, epoch, size, options);
}

Journal::Journal(Journal&& other) noexcept
    : file_(other.file_),
      path_(std::move(other.path_)),
      epoch_(other.epoch_),
      bytes_(other.bytes_),
      appended_(other.appended_),
      since_sync_(other.since_sync_),
      options_(other.options_),
      poison_(std::move(other.poison_)) {
  other.file_ = nullptr;
}

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this != &other) {
    close();
    file_ = other.file_;
    path_ = std::move(other.path_);
    epoch_ = other.epoch_;
    bytes_ = other.bytes_;
    appended_ = other.appended_;
    since_sync_ = other.since_sync_;
    options_ = other.options_;
    poison_ = std::move(other.poison_);
    other.file_ = nullptr;
  }
  return *this;
}

Journal::~Journal() { close(); }

void Journal::close() {
  if (file_ == nullptr) return;
  // Best effort (this runs in the destructor): a healthy journal's callers
  // sync explicitly when they need the bytes stable.
  if (!poisoned()) {
    try {
      detail::flush_file(file_, path_);
      if (options_.sync != SyncPolicy::kNone) {
        detail::sync_fd(::fileno(file_), path_);
      }
    } catch (const StorageError&) {  // NOLINT(bugprone-empty-catch)
    }
  }
  std::fclose(file_);
  file_ = nullptr;
}

void Journal::refuse_when_poisoned() const {
  if (poisoned()) {
    throw StorageError("journal: '" + path_ +
                       "' refuses writes after an I/O failure (" + poison_ +
                       "); reopen the store to recover");
  }
}

template <typename Io>
void Journal::fail_stop(Io&& io) {
  refuse_when_poisoned();
  try {
    io();
  } catch (const StorageError& e) {
    poison(e.what());
    throw;
  }
}

void Journal::append(std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32(frame, frame_checksum(payload));
  frame += payload;
  fail_stop([&] {
    if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
      throw StorageError("journal: write failed on '" + path_ +
                         "': " + std::strerror(errno));
    }
  });
  bytes_ += frame.size();
  ++appended_;
  switch (options_.sync) {
    case SyncPolicy::kNone:
      break;
    case SyncPolicy::kCommit:
      sync();
      break;
    case SyncPolicy::kInterval:
      if (++since_sync_ >= options_.sync_interval) sync();
      break;
  }
}

void Journal::sync() {
  fail_stop([&] {
    detail::flush_file(file_, path_);
    detail::sync_fd(::fileno(file_), path_);
  });
  since_sync_ = 0;
}

}  // namespace herc::storage
