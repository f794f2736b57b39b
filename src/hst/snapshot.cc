#include "hst/snapshot.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/atomic_file.h"
#include "common/byte_codec.h"
#include "common/fault.h"
#include "hst/leaf_code.h"

namespace tbf {

namespace {

constexpr char kSnapshotMagic[] = "TBFSNAP1";
constexpr uint32_t kSnapshotVersion = 1;
constexpr uint32_t kFlagPackedLeaves = 1u << 0;
constexpr bool kHostLittleEndian = std::endian::native == std::endian::little;

}  // namespace

std::string SerializeHstSnapshot(const CompleteHst& tree) {
  const bool packed = tree.codec() != nullptr;
  const size_t n = static_cast<size_t>(tree.num_points());
  std::string payload;
  payload.reserve(32 + n * (16 + (packed ? 8 : 2 * static_cast<size_t>(
                                                    tree.depth()))));
  ByteWriter w(&payload);
  w.U32(kSnapshotVersion);
  w.U32(packed ? kFlagPackedLeaves : 0);
  w.U32(static_cast<uint32_t>(tree.depth()));
  w.U32(static_cast<uint32_t>(tree.arity()));
  w.F64(tree.scale());
  w.U64(static_cast<uint64_t>(n));
  for (const Point& p : tree.points()) {
    w.F64(p.x);
    w.F64(p.y);
  }
  for (size_t i = 0; i < n; ++i) {
    if (packed) {
      w.U64(tree.leaf_code_of_point(static_cast<int>(i)));
    } else {
      const LeafPath& leaf = tree.leaf_of_point(static_cast<int>(i));
      for (const char16_t digit : leaf) w.U16(static_cast<uint16_t>(digit));
    }
  }
  return FrameCrcPayload(kSnapshotMagic, payload);
}

Result<CompleteHst> ParseHstSnapshot(const std::string& bytes) {
  TBF_ASSIGN_OR_RETURN(const std::string payload,
                       UnframeCrcPayload(kSnapshotMagic, bytes, "snapshot"));
  ByteReader reader(payload, "snapshot: truncated payload");
  TBF_ASSIGN_OR_RETURN(const uint32_t version, reader.U32());
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument(
        "snapshot: unsupported version " + std::to_string(version) +
        " (this build reads v" + std::to_string(kSnapshotVersion) + ")");
  }
  TBF_ASSIGN_OR_RETURN(const uint32_t flags, reader.U32());
  if ((flags & ~kFlagPackedLeaves) != 0) {
    return Status::InvalidArgument("snapshot: unknown flag bits 0x" +
                                   std::to_string(flags & ~kFlagPackedLeaves));
  }
  TBF_ASSIGN_OR_RETURN(const int depth, reader.I32());
  TBF_ASSIGN_OR_RETURN(const int arity, reader.I32());
  TBF_ASSIGN_OR_RETURN(const double scale, reader.F64());
  if (depth < 1) {
    return Status::InvalidArgument("snapshot: depth " + std::to_string(depth) +
                                   " must be >= 1");
  }
  if (arity < 2 || arity > 0xFFFF) {
    return Status::InvalidArgument("snapshot: arity " + std::to_string(arity) +
                                   " out of range [2, 65535]");
  }
  if (!std::isfinite(scale) || scale <= 0.0) {
    return Status::InvalidArgument(
        "snapshot: scale must be positive and finite");
  }
  const bool packed = (flags & kFlagPackedLeaves) != 0;
  if (packed != LeafCodec::Fits(depth, arity)) {
    return Status::InvalidArgument(
        "snapshot: leaf encoding does not match the tree shape (packed flag " +
        std::string(packed ? "set" : "clear") + ", but depth " +
        std::to_string(depth) + " x arity " + std::to_string(arity) +
        (LeafCodec::Fits(depth, arity) ? " fits" : " does not fit") +
        " 64-bit codes)");
  }
  // Cross-check the declared count against the actual payload size before
  // any allocation: a corrupted count must not trigger a huge reserve (or
  // overflow the byte arithmetic).
  const uint64_t bytes_per_point =
      16 + (packed ? 8 : 2 * static_cast<uint64_t>(depth));
  TBF_ASSIGN_OR_RETURN(const uint64_t num_points,
                       reader.Count(bytes_per_point, "points"));
  if (num_points == 0) {
    return Status::InvalidArgument("snapshot: empty point set");
  }
  TBF_ASSIGN_OR_RETURN(
      const std::string_view tables,
      reader.Bytes(num_points * bytes_per_point, "point and leaf tables"));
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("snapshot: " +
                                   std::to_string(reader.remaining()) +
                                   " trailing bytes after the leaf table");
  }
  // Both tables are fully size-checked above; read them in bulk through
  // the raw view (the load path is the hot path — a per-field reader here
  // costs more than everything else in the parse combined).
  const char* point_table = tables.data();
  const char* leaf_table = point_table + num_points * 16;
  std::vector<Point> points(num_points);
  static_assert(sizeof(Point) == 16 && std::is_trivially_copyable_v<Point>,
                "Point must match the snapshot's (f64 x, f64 y) layout");
  if constexpr (kHostLittleEndian) {
    std::memcpy(points.data(), point_table, num_points * 16);
  } else {
    for (uint64_t i = 0; i < num_points; ++i) {
      points[i].x = std::bit_cast<double>(LoadLE<uint64_t>(point_table + 16 * i));
      points[i].y =
          std::bit_cast<double>(LoadLE<uint64_t>(point_table + 16 * i + 8));
    }
  }
  for (uint64_t i = 0; i < num_points; ++i) {
    if (!std::isfinite(points[i].x) || !std::isfinite(points[i].y)) {
      return Status::InvalidArgument("snapshot: point " + std::to_string(i) +
                                     ": non-finite coordinate");
    }
  }
  std::vector<LeafPath> leaves;
  leaves.reserve(num_points);
  std::optional<LeafCodec> codec;
  if (packed) codec.emplace(depth, arity);  // checked against Fits above
  for (uint64_t i = 0; i < num_points; ++i) {
    LeafPath leaf;
    if (packed) {
      const uint64_t code = LoadLE<uint64_t>(leaf_table + 8 * i);
      leaf = codec->Unpack(code);
      // Unpack masks each digit to the codec's bit width; re-packing
      // detects digits that exceeded the arity (corrupt high bits).
      if (codec->Pack(leaf) != code) {
        return Status::InvalidArgument("snapshot: leaf " + std::to_string(i) +
                                       ": code has bits outside the shape");
      }
    } else {
      const char* row = leaf_table + 2 * static_cast<uint64_t>(depth) * i;
      leaf.resize(static_cast<size_t>(depth));
      if constexpr (kHostLittleEndian) {
        std::memcpy(leaf.data(), row, 2 * static_cast<size_t>(depth));
      } else {
        for (int d = 0; d < depth; ++d) {
          leaf[static_cast<size_t>(d)] =
              static_cast<char16_t>(LoadLE<uint16_t>(row + 2 * d));
        }
      }
    }
    for (size_t d = 0; d < leaf.size(); ++d) {
      if (static_cast<int>(leaf[d]) >= arity) {
        return Status::InvalidArgument(
            "snapshot: leaf " + std::to_string(i) + ": digit " +
            std::to_string(static_cast<int>(leaf[d])) + " at level " +
            std::to_string(d) + " out of arity range [0, " +
            std::to_string(arity) + ")");
      }
    }
    leaves.push_back(std::move(leaf));
  }
  // FromParts checks duplicates/counts and rebuilds the leaf-lookup
  // tables; kPrevalidated skips its per-digit loop (the ranges and
  // lengths were proved above, with better error messages), and the
  // nearest-point mapper is lazy — nothing until the first MapToNearest*.
  Result<CompleteHst> tree = CompleteHst::FromParts(
      depth, arity, scale, std::move(points), std::move(leaves),
      CompleteHst::PartsValidation::kPrevalidated);
  if (!tree.ok()) {
    return Status::InvalidArgument("snapshot: " + tree.status().message());
  }
  return tree;
}

Status WriteHstSnapshotFile(const CompleteHst& tree, const std::string& path) {
  // The site fires before any byte is produced: an injected failure
  // leaves `path` (and any previous snapshot there) untouched.
  TBF_RETURN_NOT_OK(TBF_FAULT_INJECT("snapshot.write"));
  return WriteFileAtomic(path, SerializeHstSnapshot(tree), "snapshot");
}

Result<CompleteHst> ReadHstSnapshotFile(const std::string& path) {
  TBF_RETURN_NOT_OK(TBF_FAULT_INJECT("snapshot.load"));
  TBF_ASSIGN_OR_RETURN(const std::string bytes,
                       ReadFileToString(path, "snapshot"));
  return ParseHstSnapshot(bytes);
}

}  // namespace tbf
