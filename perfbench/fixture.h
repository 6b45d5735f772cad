// Inputs and deployment pieces the three workloads share: the schema, the
// seeded row sample, the query generator, the authority tree (TA -> one
// LTA -> one user), and parallel owner-side GenIndex.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <vector>

#include "auth/authority.h"
#include "core/apks.h"
#include "oracle.h"
#include "store/sharded_store.h"

namespace perfbench {

// Nursery's nine flat dimensions; has_nurs takes OR lists of two values
// (so subset queries exist), every other dimension single values.
[[nodiscard]] apks::Schema bench_schema();

// `count` distinct Nursery rows, in a seed-determined upload order, with
// doc_refs "<prefix>-00000", "<prefix>-00001", ...
[[nodiscard]] std::vector<Upload> sample_uploads(std::uint64_t seed,
                                                 std::size_t count,
                                                 const std::string& prefix);

// Query k of the seed's stream. Shapes cycle with period kShapes, so every
// whole round holds one query of each shape:
//   0: equality on one dimension          (broad: a third of the rows)
//   1: equality on two dimensions
//   2: equality on one dimension AND has_nurs in {anchor value, another}
//   3: equality on four dimensions         (narrow: one to a few rows)
//   4: equality on all nine dimensions of a row nobody uploaded (no match)
// Shapes 0-3 take their values from an uploaded anchor row, so they match
// at least that row.
inline constexpr std::size_t kShapes = 5;
class QueryGen {
 public:
  QueryGen(std::uint64_t seed, const std::vector<Upload>& uploads);
  [[nodiscard]] apks::Query make(std::uint64_t k) const;

 private:
  std::uint64_t seed_;
  const std::vector<Upload>* uploads_;
  std::vector<apks::PlainIndex> absent_;  // rows not uploaded
};

// TA, one LTA whose scope is unrestricted, and one user eligible for every
// attribute value — so a delegated capability answers exactly the plain
// query, and the oracle's semantics apply unchanged.
struct Authorities {
  Authorities(const apks::Apks& scheme, apks::Rng& rng);
  apks::TrustedAuthority ta;
  std::unique_ptr<apks::LocalAuthority> lta;
  apks::CapabilityVerifier verifier;
  static constexpr const char* kUser = "user-0";
};

// The server-side form of an issued capability.
[[nodiscard]] apks::SignedQuery to_signed_query(
    const apks::SignedCapability& cap);

// Owner-side GenIndex of every upload over `threads` workers, each record
// with its own ChaChaRng stream (so the ciphertexts depend on the seed,
// not on scheduling). `ms_per_call` receives each call's duration.
[[nodiscard]] std::vector<apks::EncryptedIndex> generate_indexes(
    const apks::Apks& scheme, const apks::ApksPublicKey& pk,
    const std::vector<Upload>& uploads, std::uint64_t seed,
    std::size_t threads, std::vector<double>* ms_per_call);

// Store options whose segments hold exactly `segment_records` records of
// this deployment's (fixed) frame size, so the sealed/active-tail split
// follows from the record count.
[[nodiscard]] apks::ShardedStoreOptions store_options(
    const apks::SearchBackend& backend, std::uint32_t shards,
    std::size_t segment_records, const Upload& upload,
    const apks::AnyIndex& index);

// The owners' side of a search workload: appends every index in upload
// order to a fresh store at `dir` and closes it (synced). `us_per_append`
// receives each append's duration.
void upload_all(const apks::SearchBackend& backend,
                const std::filesystem::path& dir,
                const apks::ShardedStoreOptions& options,
                const std::vector<Upload>& uploads,
                const std::vector<apks::EncryptedIndex>& indexes,
                std::vector<double>* us_per_append);

// decode_index timings (us) over the first `count` records.
[[nodiscard]] std::vector<double> decode_timings(
    const apks::SearchBackend& backend,
    const std::vector<apks::StoredAnyRecord>& records, std::size_t count);

// Worker threads the benchmark may keep busy at once.
[[nodiscard]] std::size_t thread_budget();

}  // namespace perfbench
