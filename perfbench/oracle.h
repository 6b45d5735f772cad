// The benchmark's correctness oracle, independent of the scheme: it
// evaluates the generated queries over the plaintext rows the owners
// uploaded and checks what the system returned or reloaded against that.
// It never calls Schema::matches_plain or any crypto; the only library
// types it touches are the plain Query/PlainIndex structs.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/schema.h"

namespace perfbench {

// One uploaded record as the owner knows it.
struct Upload {
  std::string doc_ref;
  apks::PlainIndex row;
};

// Plaintext semantics of a flat query: a don't-care term accepts any
// value, an equality term its one value, a subset term any of its values.
// Any other term kind is outside what the generator emits and throws.
[[nodiscard]] bool oracle_matches(const apks::PlainIndex& row,
                                  const apks::Query& query);

// doc_refs of the matching uploads, in upload order.
[[nodiscard]] std::vector<std::string> oracle_expected(
    const std::vector<Upload>& uploads, const apks::Query& query);

// "" when `got` is exactly `expected` (same refs, same order); otherwise
// a short reason naming the first difference.
[[nodiscard]] std::string check_result(const std::vector<std::string>& got,
                                       const std::vector<std::string>& expected);

// What a reload left behind, read back independently of the load path.
struct ReloadView {
  std::size_t server_records = 0;  // CloudServer::record_count after load
  std::size_t store_records = 0;   // ShardedStore::record_count after open
  // Per shard, the (id, doc_ref) frames in on-disk order.
  std::vector<std::vector<std::pair<std::uint64_t, std::string>>> shards;
};

// "" when the reload holds exactly the acknowledged uploads: both record
// counts equal the acknowledged count, per-shard counts sum to it, every
// shard's ids ascend strictly and route to that shard (id % shards), ids
// are unique across shards, and every acknowledged doc_ref appears exactly
// once (and nothing else appears).
[[nodiscard]] std::string check_reload(const ReloadView& view,
                                       const std::vector<std::string>& acked);

}  // namespace perfbench
