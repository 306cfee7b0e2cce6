// Format-v1 .pgds bytes for the suites that cover DatasetView's offset scan
// and reindex_dataset. No writer emits v1 any more, but the record stream is
// identical under both versions: a v1 file is a v2 file cut right after its
// end marker ("DEND" + record count), with the u16 header version at byte 8
// patched to 1. tests/golden_legacy/corpus.pgds is a v1 file written by the
// old v1 writer; io_test pins this helper against it.
#pragma once

#include <cstdint>
#include <string>

#include "io/binary.hpp"

namespace pg::test_io {

inline std::string strip_to_v1(const std::string& v2) {
  // The 20-byte footer at EOF starts with the u64 offset of the index
  // section, which begins right after the end marker.
  const std::uint64_t index_offset = io::load_le64(
      reinterpret_cast<const unsigned char*>(v2.data()) + v2.size() - 20);
  std::string v1 = v2.substr(0, static_cast<std::size_t>(index_offset));
  v1[8] = 1;
  v1[9] = 0;
  return v1;
}

}  // namespace pg::test_io
