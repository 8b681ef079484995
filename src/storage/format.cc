#include "storage/format.h"

namespace flipper {
namespace storage {

const char* SectionIdName(SectionId id) {
  switch (id) {
    case SectionId::kTxnOffsets:
      return "txn_offsets";
    case SectionId::kTxnItems:
      return "txn_items";
    case SectionId::kSegments:
      return "segments";
    case SectionId::kDictOffsets:
      return "dict_offsets";
    case SectionId::kDictBlob:
      return "dict_blob";
    case SectionId::kTaxParents:
      return "tax_parents";
    case SectionId::kTaxRoots:
      return "tax_roots";
  }
  return "unknown";
}

uint64_t Fnv1a64(const void* data, size_t size, uint64_t state) {
  constexpr uint64_t kPrime = 0x100000001b3ull;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    state ^= bytes[i];
    state *= kPrime;
  }
  return state;
}

uint64_t HeaderChecksum(const FileHeader& header) {
  FileHeader copy = header;
  copy.header_checksum = 0;
  return Fnv1a64(&copy, sizeof(copy));
}

}  // namespace storage
}  // namespace flipper
