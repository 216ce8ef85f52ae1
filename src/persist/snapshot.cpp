#include "persist/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "core/error.hpp"
#include "persist/crc32c.hpp"
#include "pprim/byte_codec.hpp"
#include "pprim/fault.hpp"

namespace smp::persist {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[8] = {'S', 'M', 'P', 'S', 'N', 'A', 'P', '1'};
constexpr std::uint32_t kEndMagic = 0x50414E53u;  // "SNAP"

[[noreturn]] void sys_fail(const std::string& what, const std::string& path) {
  throw Error(ErrorCode::kInvalidInput,
              what + " '" + path + "': " + std::strerror(errno));
}

/// write() + fsync() + close(), throwing on any failure.  `split_at` > 0
/// interposes the mid-snapshot fault point after that many bytes, so an
/// armed crash leaves a half-written tmp file on disk.
void write_file_durably(const std::string& path, const std::string& data,
                        std::size_t split_at) {
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) sys_fail("cannot create", path);
  const auto write_all = [&](const char* p, std::size_t n) {
    while (n > 0) {
      const ssize_t w = ::write(fd, p, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        sys_fail("write to", path);
      }
      p += w;
      n -= static_cast<std::size_t>(w);
    }
  };
  split_at = std::min(split_at, data.size());
  write_all(data.data(), split_at);
  fault_point("persist.mid_snapshot");
  write_all(data.data() + split_at, data.size() - split_at);
  if (::fsync(fd) != 0) {
    ::close(fd);
    sys_fail("fsync", path);
  }
  ::close(fd);
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) sys_fail("cannot open directory", dir);
  if (::fsync(fd) != 0) {
    ::close(fd);
    sys_fail("fsync directory", dir);
  }
  ::close(fd);
}

/// snap-<16 hex digits>.snap -> lsn, or nullopt for anything else.
std::optional<std::uint64_t> parse_snapshot_name(const std::string& name) {
  if (name.size() != 4 + 1 + 16 + 5 || name.rfind("snap-", 0) != 0 ||
      name.compare(name.size() - 5, 5, ".snap") != 0) {
    return std::nullopt;
  }
  std::uint64_t lsn = 0;
  for (std::size_t i = 5; i < 5 + 16; ++i) {
    const char c = name[i];
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return std::nullopt;
    }
    lsn = (lsn << 4) | static_cast<std::uint64_t>(digit);
  }
  return lsn;
}

}  // namespace

std::string snapshot_path(const std::string& dir, std::uint64_t lsn) {
  char name[32];
  std::snprintf(name, sizeof name, "snap-%016" PRIx64 ".snap", lsn);
  return dir + "/" + name;
}

void write_snapshot_file(
    const std::string& dir, std::uint64_t lsn, const dynamic::EdgeStore& store,
    const std::vector<graph::EdgeId>& forest,
    const std::vector<std::pair<std::string, std::uint64_t>>& idem) {
  std::string data(kMagic, sizeof kMagic);
  ByteWriter w(data);
  w.u64(lsn);
  store.serialize(data);
  w.u64(forest.size());
  for (const graph::EdgeId id : forest) w.u64(id);
  w.u32(static_cast<std::uint32_t>(idem.size()));
  for (const auto& [id, id_lsn] : idem) {
    w.u16(static_cast<std::uint16_t>(id.size()));
    w.bytes(id);
    w.u64(id_lsn);
  }
  w.u32(crc32c(data.data(), data.size()));
  w.u32(kEndMagic);

  const std::string final_path = snapshot_path(dir, lsn);
  const std::string tmp_path = final_path + ".tmp";
  write_file_durably(tmp_path, data, data.size() / 2);
  fault_point("persist.mid_rename");
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    sys_fail("rename snapshot into", final_path);
  }
  // The rename is only durable once the directory entry is: without this a
  // power cut can resurrect the old directory state and lose the snapshot.
  fsync_dir(dir);
}

SnapshotBody load_snapshot_file(const std::string& path) {
  const auto fail = [&](const std::string& why) {
    throw Error(ErrorCode::kInvalidInput, "snapshot '" + path + "': " + why);
  };
  std::string data;
  {
    std::ifstream is(path, std::ios::binary);
    if (!is) fail("cannot open");
    data.assign(std::istreambuf_iterator<char>(is),
                std::istreambuf_iterator<char>());
  }
  if (data.size() < sizeof kMagic + 8 + 8) {
    fail("too short (" + std::to_string(data.size()) + " bytes)");
  }
  if (std::memcmp(data.data(), kMagic, sizeof kMagic) != 0) fail("bad magic");
  const std::string_view bytes(data);
  ByteReader trailer(bytes.substr(bytes.size() - 8));
  const std::uint32_t crc = trailer.u32();
  if (trailer.u32() != kEndMagic) fail("missing end marker (truncated?)");
  if (crc32c(data.data(), data.size() - 8) != crc) fail("CRC32C mismatch");

  SnapshotBody body;
  ByteReader r(bytes.substr(sizeof kMagic, bytes.size() - 8 - sizeof kMagic));
  body.lsn = r.u64();  // the length check above covers it
  body.store = dynamic::EdgeStore::restore(r);
  const std::uint64_t n_forest = r.u64();
  if (!r.ok()) fail("truncated forest count");
  if (!r.count(n_forest, 8)) fail("forest count overruns the file");
  body.forest.resize(static_cast<std::size_t>(n_forest));
  for (graph::EdgeId& id : body.forest) id = r.u64();
  const std::uint32_t n_idem = r.u32();
  if (!r.ok()) fail("truncated idem count");
  // Each entry is at least its u16 length and u64 LSN.
  if (!r.count(n_idem, 10)) fail("idem count overruns the file");
  body.idem.resize(n_idem);
  for (auto& [id, lsn] : body.idem) {
    id = r.bytes(r.u16());
    lsn = r.u64();
  }
  if (!r.ok()) fail("truncated idem id");
  if (r.remaining() != 0) fail("trailing bytes before the trailer");
  return body;
}

std::vector<std::uint64_t> list_snapshots(const std::string& dir) {
  std::vector<std::uint64_t> lsns;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const auto lsn = parse_snapshot_name(entry.path().filename().string());
    if (lsn) lsns.push_back(*lsn);
  }
  std::sort(lsns.rbegin(), lsns.rend());
  return lsns;
}

void retain_snapshots(const std::string& dir, int keep) {
  const std::vector<std::uint64_t> lsns = list_snapshots(dir);
  for (std::size_t i = static_cast<std::size_t>(std::max(1, keep));
       i < lsns.size(); ++i) {
    std::error_code ec;
    fs::remove(snapshot_path(dir, lsns[i]), ec);
  }
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) == 0 &&
        name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      std::error_code rm;
      fs::remove(entry.path(), rm);
    }
  }
}

}  // namespace smp::persist
