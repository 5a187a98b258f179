// Binary persistence for the expensive preprocessing artifacts: the
// separator tree and the augmentation E+. A production deployment
// preprocesses once (Table 1's O(n^{3 mu}) work), stores the artifacts,
// and serves queries from any process (O(n + n^{2 mu}) per source).
//
// Format: little-endian PODs behind a magic/version header; semiring
// values must be trivially copyable (all shipped semirings are).
// Loading validates counts and ranges; corrupted streams return nullopt
// rather than aborting, and the optional `error` out-param receives a
// human-readable reason (bad magic vs. unsupported version vs.
// truncation) for surfacing in tooling.
//
// Versioning contract: writers always emit the current version; readers
// accept every version in [kMinVersion, current]. Fields added by a
// newer version default sanely when reading an older payload (an
// augmentation v1 file loads with zero build-cost metadata). A reader
// seeing a *newer* version than it knows refuses with a clear error —
// guessing at an unknown layout would misparse silently.
//
// Augmentation format history:
//   v1  magic, version, n, height, ell, level[], node[], shortcuts[]
//   v2  v1 + critical_depth, build_work, build_depth (after ell) — the
//       build-cost metadata engine.stats() reports, preserved across
//       save/load round trips.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <type_traits>

#include "core/augment.hpp"
#include "separator/decomposition.hpp"

namespace sepsp {

namespace serial_detail {

constexpr std::uint32_t kTreeMagic = 0x53455054;  // "SEPT"
constexpr std::uint32_t kAugMagic = 0x53455041;   // "SEPA"
constexpr std::uint32_t kTreeVersion = 1;         ///< current tree format
constexpr std::uint32_t kAugVersion = 2;          ///< current aug format
constexpr std::uint32_t kMinVersion = 1;          ///< oldest readable

inline void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

/// Checks a magic/version header. On success stores the on-disk version
/// (callers branch on it to skip fields the payload predates).
inline bool read_header(std::istream& is, std::uint32_t want_magic,
                        std::uint32_t current_version,
                        const char* artifact, std::uint32_t* version_out,
                        std::string* error);

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
bool read_pod(std::istream& is, T* value) {
  static_assert(std::is_trivially_copyable_v<T>);
  is.read(reinterpret_cast<char*>(value), sizeof *value);
  return static_cast<bool>(is);
}

template <typename T>
void write_vec(std::ostream& os, const std::vector<T>& v) {
  write_pod(os, static_cast<std::uint64_t>(v.size()));
  if (!v.empty()) {
    os.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(T)));
  }
}

/// Bytes between the stream's read position and its end, or nullopt
/// when the stream is not seekable. Every segment read bounds its
/// element count against this before allocating, so a corrupted count
/// fails as truncation instead of as a multi-GiB resize().
inline std::optional<std::uint64_t> remaining_bytes(std::istream& is) {
  const std::istream::pos_type pos = is.tellg();
  if (pos == std::istream::pos_type(-1)) return std::nullopt;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(pos);
  if (end == std::istream::pos_type(-1) || end < pos) return std::nullopt;
  return static_cast<std::uint64_t>(end - pos);
}

template <typename T>
bool read_vec(std::istream& is, std::vector<T>* v,
              std::uint64_t max_elems = (1ULL << 32)) {
  std::uint64_t count = 0;
  if (!read_pod(is, &count) || count > max_elems) return false;
  v->clear();
  if (count != 0) {
    // count > remaining/sizeof(T) (not count * sizeof(T), which could
    // wrap) — the payload cannot possibly be present past this point.
    if (const std::optional<std::uint64_t> left = remaining_bytes(is);
        left.has_value() && count > *left / sizeof(T)) {
      return false;
    }
    v->resize(count);
    is.read(reinterpret_cast<char*>(v->data()),
            static_cast<std::streamsize>(count * sizeof(T)));
  }
  return static_cast<bool>(is);
}

inline bool read_header(std::istream& is, std::uint32_t want_magic,
                        std::uint32_t current_version, const char* artifact,
                        std::uint32_t* version_out, std::string* error) {
  std::uint32_t magic = 0, version = 0;
  if (!read_pod(is, &magic)) {
    set_error(error, std::string(artifact) + ": truncated header");
    return false;
  }
  if (magic != want_magic) {
    set_error(error, std::string(artifact) + ": bad magic 0x" + [&] {
      char buf[9];
      std::snprintf(buf, sizeof buf, "%08x", magic);
      return std::string(buf);
    }() + " (not a " + artifact + " file)");
    return false;
  }
  if (!read_pod(is, &version)) {
    set_error(error, std::string(artifact) + ": truncated header");
    return false;
  }
  if (version < kMinVersion || version > current_version) {
    set_error(error, std::string(artifact) + ": unsupported format version " +
                         std::to_string(version) + " (this build reads " +
                         std::to_string(kMinVersion) + ".." +
                         std::to_string(current_version) + ")");
    return false;
  }
  *version_out = version;
  return true;
}

}  // namespace serial_detail

/// Serializes a separator tree.
void save_tree(std::ostream& os, const SeparatorTree& tree);

/// Deserializes a tree; nullopt on malformed input (reason in `error`
/// when provided). Run validate() against the skeleton when the stream
/// is untrusted.
std::optional<SeparatorTree> load_tree(std::istream& is,
                                       std::string* error = nullptr);

/// Serializes an augmentation (any semiring with trivially copyable
/// values). Always writes the current format version.
template <Semiring S>
void save_augmentation(std::ostream& os, const Augmentation<S>& aug) {
  using serial_detail::write_pod;
  using serial_detail::write_vec;
  static_assert(std::is_trivially_copyable_v<typename S::Value>);
  write_pod(os, serial_detail::kAugMagic);
  write_pod(os, serial_detail::kAugVersion);
  write_pod(os, static_cast<std::uint64_t>(aug.levels.level.size()));
  write_pod(os, aug.height);
  write_pod(os, static_cast<std::uint64_t>(aug.ell));
  // v2: build-cost metadata (engine.stats() structural fields).
  write_pod(os, aug.critical_depth);
  write_pod(os, aug.build_cost.work);
  write_pod(os, aug.build_cost.depth);
  write_vec(os, aug.levels.level);
  write_vec(os, aug.levels.node);
  write_vec(os, aug.shortcuts);
}

/// Deserializes an augmentation; nullopt on malformed input (reason in
/// `error` when provided). Reads every version since kMinVersion — v1
/// payloads load with zeroed build-cost metadata.
template <Semiring S>
std::optional<Augmentation<S>> load_augmentation(std::istream& is,
                                                 std::string* error = nullptr) {
  using serial_detail::read_pod;
  using serial_detail::read_vec;
  using serial_detail::set_error;
  std::uint32_t version = 0;
  std::uint64_t n = 0, ell = 0;
  Augmentation<S> aug;
  if (!serial_detail::read_header(is, serial_detail::kAugMagic,
                                  serial_detail::kAugVersion, "augmentation",
                                  &version, error)) {
    return std::nullopt;
  }
  if (!read_pod(is, &n) || !read_pod(is, &aug.height) ||
      !read_pod(is, &ell)) {
    set_error(error, "augmentation: truncated metadata");
    return std::nullopt;
  }
  if (n > (1ULL << 32) || aug.height > (1u << 28) || ell > (1ULL << 32)) {
    set_error(error, "augmentation: implausible metadata (corrupt stream?)");
    return std::nullopt;
  }
  aug.ell = ell;
  if (version >= 2) {
    std::uint64_t work = 0, depth = 0;
    if (!read_pod(is, &aug.critical_depth) || !read_pod(is, &work) ||
        !read_pod(is, &depth)) {
      set_error(error, "augmentation: truncated v2 build-cost metadata");
      return std::nullopt;
    }
    aug.build_cost.work = work;
    aug.build_cost.depth = depth;
  }
  // max_elems == n: a count disagreeing with the header fails before
  // any allocation, not after a wasted resize.
  if (!read_vec(is, &aug.levels.level, n) || aug.levels.level.size() != n) {
    set_error(error, "augmentation: bad level assignment");
    return std::nullopt;
  }
  if (!read_vec(is, &aug.levels.node, n) || aug.levels.node.size() != n) {
    set_error(error, "augmentation: bad node assignment");
    return std::nullopt;
  }
  if (!read_vec(is, &aug.shortcuts)) {
    set_error(error, "augmentation: bad shortcut list");
    return std::nullopt;
  }
  aug.levels.height = aug.height;
  for (const Shortcut<S>& e : aug.shortcuts) {
    if (e.from >= n || e.to >= n) {
      set_error(error, "augmentation: shortcut endpoint out of range");
      return std::nullopt;
    }
  }
  return aug;
}

}  // namespace sepsp
