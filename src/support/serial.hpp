// Byte-level serialization primitives for the durability layer
// (DESIGN.md Sect. 7): a little-endian byte writer/reader pair and the
// CRC32 (IEEE, reflected 0xEDB88320) used to guard every checkpoint
// region.
//
// Lives in support/ (the bottom layer) so the kernel cores can
// serialize themselves without depending on src/ckpt/: a core's
// snapshot()/restore() speaks ByteWriter/ByteReader, and the checkpoint
// format (src/ckpt/checkpoint.hpp) wraps those bytes in the versioned,
// checksummed rbb.ckpt.v1 envelope.
//
// Integers are written via memcpy in native order; the repository
// targets little-endian platforms only (the same assumption the raw
// struct dumps of FlatTokenStore make), so the on-disk format is
// little-endian by construction.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "support/huge_pages.hpp"

namespace rbb::serial {

namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

}  // namespace detail

/// Inputs shorter than this take the table loop: the fold needs one
/// full 64-byte block to start.
inline constexpr std::size_t kCrcFoldMinBytes = 64;

/// CRC32 of `size` bytes, one byte per step through the 256-entry
/// table.  The portable reference, the fold's tail path, and the whole
/// computation below kCrcFoldMinBytes.  Chainable: pass a previous
/// result as `crc` to extend the checksum over a further region.
[[nodiscard]] inline std::uint32_t crc32_table(const void* data,
                                               std::size_t size,
                                               std::uint32_t crc = 0) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < size; ++i) {
    crc = detail::kCrcTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

/// CRC32 of `size` bytes (the checksum of every checkpoint region),
/// chainable like crc32_table.  From kCrcFoldMinBytes up it folds 64
/// bytes at a time by carry-less multiplies (PCLMULQDQ, serial.cpp) and
/// takes the last size % 16 bytes through the table.  Equal to
/// crc32_table for every input; where the CPU or the build lacks
/// PCLMULQDQ it is crc32_table.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t crc = 0) noexcept;

[[nodiscard]] inline std::uint32_t crc32(std::string_view bytes,
                                         std::uint32_t crc = 0) noexcept {
  return crc32(bytes.data(), bytes.size(), crc);
}

/// Append-only byte sink.  Fixed-width integers, doubles, raw byte
/// runs, and length-prefixed vectors of trivially copyable elements.
class ByteWriter {
 public:
  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  void f64(double v) { append(&v, sizeof v); }
  void bytes(const void* data, std::size_t size) { append(data, size); }

  /// Makes room for `size` more bytes in one allocation, so a writer
  /// that knows its byte count up front never re-copies what it wrote,
  /// and advises the allocation for huge pages before the writes touch
  /// it (capacity is not rounded up).
  void reserve(std::size_t size) {
    bytes_.reserve(bytes_.size() + size);
    advise_huge_pages(bytes_.data(), bytes_.capacity());
  }

  /// Bytes vec() writes for `count` elements of T.
  template <typename T>
  [[nodiscard]] static constexpr std::size_t vec_bytes(std::size_t count) {
    return sizeof(std::uint64_t) + count * sizeof(T);
  }

  /// u64 element count followed by the raw element bytes.
  template <typename T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "vec() serializes raw element bytes");
    u64(v.size());
    if (!v.empty()) append(v.data(), v.size() * sizeof(T));
  }

  [[nodiscard]] const std::string& str() const noexcept { return bytes_; }
  [[nodiscard]] std::string take() { return std::move(bytes_); }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }

 private:
  void append(const void* data, std::size_t size) {
    bytes_.append(static_cast<const char*>(data), size);
  }

  std::string bytes_;
};

/// Cursor over an immutable byte span; every read throws
/// std::runtime_error on underflow (a checkpoint payload is
/// CRC-verified before it reaches a reader, so underflow here means the
/// payload belongs to a differently-shaped process).
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) noexcept : data_(data) {}

  [[nodiscard]] std::uint32_t u32() { return scalar<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return scalar<std::uint64_t>(); }
  [[nodiscard]] double f64() { return scalar<double>(); }

  void bytes(void* out, std::size_t size) {
    std::memcpy(out, take(size), size);
  }

  /// Counterpart of ByteWriter::vec.  `max_count` bounds the element
  /// count before any allocation happens, so a corrupt length cannot
  /// trigger a huge resize.
  template <typename T>
  void vec(std::vector<T>& out,
           std::uint64_t max_count = std::uint64_t{1} << 40) {
    const VecView<T> view = vec_view<T>();
    if (view.count > max_count) {
      throw std::runtime_error("serial: vector length exceeds payload");
    }
    out.resize(static_cast<std::size_t>(view.count));
    view.copy_to(out);
  }

  /// A ByteWriter::vec record left in the payload: its element count
  /// and bytes.
  template <typename T>
  struct VecView {
    std::uint64_t count;
    const char* bytes;
    /// Copies the elements to `out`, which holds exactly `count`.
    void copy_to(std::vector<T>& out) const noexcept {
      if (count != 0) std::memcpy(out.data(), bytes, count * sizeof(T));
    }
  };

  /// Counterpart of ByteWriter::vec for an array of known size: reads
  /// the element count and steps over the element bytes without
  /// copying them.  The caller checks `count` against its own array
  /// and calls copy_to() only after every check of the payload passed,
  /// so a payload of another shape overwrites nothing.
  template <typename T>
  [[nodiscard]] VecView<T> vec_view() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t count = u64();
    if (count > remaining() / sizeof(T)) {
      throw std::runtime_error("serial: vector length exceeds payload");
    }
    return {count, take(static_cast<std::size_t>(count) * sizeof(T))};
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - offset_;
  }
  [[nodiscard]] bool done() const noexcept { return remaining() == 0; }

 private:
  template <typename T>
  [[nodiscard]] T scalar() {
    T v;
    std::memcpy(&v, take(sizeof(T)), sizeof(T));
    return v;
  }

  [[nodiscard]] const char* take(std::size_t size) {
    if (size > remaining()) {
      throw std::runtime_error("serial: read past end of payload");
    }
    const char* p = data_.data() + offset_;
    offset_ += size;
    return p;
  }

  std::string_view data_;
  std::size_t offset_ = 0;
};

}  // namespace rbb::serial
