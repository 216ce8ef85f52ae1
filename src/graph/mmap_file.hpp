#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace smp::graph {

/// Read-only memory map of a whole file, the storage substrate under
/// CompressedCsr::open_file.  Every failure mode — unopenable path,
/// unstattable file, a map the kernel refuses — surfaces as
/// smp::Error{kInvalidInput} naming the path (and size where it helps),
/// never a crash; callers layer their own format-level offset diagnostics
/// on top.  Move-only; unmaps on destruction.  A default-constructed
/// instance is an empty map.
class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile();

  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  /// Maps `path` read-only.  Throws smp::Error{kInvalidInput} on any
  /// failure.  A zero-length file maps to {nullptr, 0} successfully.
  [[nodiscard]] static MmapFile open(const std::string& path);

  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::string path_;
};

}  // namespace smp::graph
