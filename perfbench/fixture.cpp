#include "fixture.h"

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "data/nursery.h"
#include "harness.h"
#include "store/segment.h"

namespace perfbench {

using namespace apks;

namespace {

constexpr std::size_t kSubsetDim = 1;  // has_nurs

// Deterministic 64-bit stream (splitmix64) for input generation; the
// scheme's own randomness comes from ChaChaRng streams derived from the
// same seed.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

}  // namespace

Schema bench_schema() {
  std::vector<Dimension> dims;
  const auto& attrs = nursery_attributes();
  for (std::size_t d = 0; d < attrs.size(); ++d) {
    dims.push_back({attrs[d].name, nullptr, d == kSubsetDim ? 2u : 1u});
  }
  return Schema(std::move(dims));
}

std::vector<Upload> sample_uploads(std::uint64_t seed, std::size_t count,
                                   const std::string& prefix) {
  std::vector<PlainIndex> rows = nursery_rows();
  if (count > rows.size()) throw std::invalid_argument("sample too large");
  SeedStream rng(seed ^ 0x5eed0001ull);
  // Partial Fisher-Yates: the first `count` slots become the sample.
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(rows[i], rows[i + rng.below(rows.size() - i)]);
  }
  std::vector<Upload> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    char ref[32];
    std::snprintf(ref, sizeof ref, "%s-%05zu", prefix.c_str(), i);
    out.push_back({ref, std::move(rows[i])});
  }
  return out;
}

QueryGen::QueryGen(std::uint64_t seed, const std::vector<Upload>& uploads)
    : seed_(seed), uploads_(&uploads) {
  std::set<std::vector<std::string>> present;
  for (const Upload& u : uploads) present.insert(u.row.values);
  for (PlainIndex& row : nursery_rows()) {
    if (present.count(row.values) == 0) absent_.push_back(std::move(row));
  }
}

Query QueryGen::make(std::uint64_t k) const {
  SeedStream rng(seed_ * 0x100000001b3ull + k);
  const std::size_t dims = nursery_attributes().size();
  const std::size_t inputs = dims - 1;  // the class column is derived
  Query q;
  q.terms.assign(dims, QueryTerm::any());
  const std::size_t shape = static_cast<std::size_t>(k % kShapes);
  if (shape == 4) {
    const PlainIndex& row = absent_[rng.below(absent_.size())];
    for (std::size_t d = 0; d < dims; ++d) {
      q.terms[d] = QueryTerm::equals(row.values[d]);
    }
    return q;
  }
  const PlainIndex& anchor =
      (*uploads_)[rng.below(uploads_->size())].row;
  // Distinct input dimensions in random order (the subset dimension is
  // kept out of the equality picks of shape 2).
  std::vector<std::size_t> order;
  for (std::size_t d = 0; d < inputs; ++d) {
    if (shape == 2 && d == kSubsetDim) continue;
    order.push_back(d);
  }
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    std::swap(order[i], order[i + rng.below(order.size() - i)]);
  }
  const std::size_t equalities = shape == 0 ? 1 : shape == 1 ? 2
                                 : shape == 2 ? 1
                                              : 4;
  for (std::size_t i = 0; i < equalities; ++i) {
    q.terms[order[i]] = QueryTerm::equals(anchor.values[order[i]]);
  }
  if (shape == 2) {
    const auto& universe = nursery_attributes()[kSubsetDim].values;
    const std::string& mine = anchor.values[kSubsetDim];
    std::string other = mine;
    while (other == mine) other = universe[rng.below(universe.size())];
    q.terms[kSubsetDim] = QueryTerm::subset({mine, other});
  }
  return q;
}

namespace {

Query unrestricted(std::size_t dims) {
  Query q;
  q.terms.assign(dims, QueryTerm::any());
  return q;
}

CapabilityVerifier make_verifier(const Pairing& e,
                                 const IbsPublicParams& params,
                                 const std::string& issuer) {
  CapabilityVerifier v(e, params);
  v.register_authority(issuer);
  return v;
}

}  // namespace

Authorities::Authorities(const Apks& scheme, Rng& rng)
    : ta(scheme, rng),
      lta(ta.make_lta("lta-0",
                      unrestricted(scheme.schema().original_dims()), rng)),
      verifier(make_verifier(scheme.hpe().pairing(), ta.ibs_params(),
                             lta->name())) {
  UserAttributes attrs;
  for (const auto& attr : nursery_attributes()) {
    attrs.values[attr.name] = attr.values;
  }
  lta->register_user(kUser, std::move(attrs));
}

SignedQuery to_signed_query(const SignedCapability& cap) {
  return {AnyQuery::own(SchemeKind::kApks, cap.cap), cap.issuer, cap.sig};
}

std::vector<EncryptedIndex> generate_indexes(const Apks& scheme,
                                             const ApksPublicKey& pk,
                                             const std::vector<Upload>& uploads,
                                             std::uint64_t seed,
                                             std::size_t threads,
                                             std::vector<double>* ms_per_call) {
  std::vector<EncryptedIndex> out(uploads.size());
  std::vector<double> ms(uploads.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  std::exception_ptr error;
  std::mutex error_mu;
  for (std::size_t t = 0; t < std::max<std::size_t>(threads, 1); ++t) {
    pool.emplace_back([&] {
      try {
        for (std::size_t i = next++; i < uploads.size(); i = next++) {
          ChaChaRng rng("perfbench-gen-index", seed * 1000003ull + i);
          const auto start = Clock::now();
          out[i] = scheme.gen_index(pk, uploads[i].row, rng);
          ms[i] = ms_since(start);
        }
      } catch (...) {
        std::lock_guard lock(error_mu);
        error = std::current_exception();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
  if (ms_per_call != nullptr) *ms_per_call = std::move(ms);
  return out;
}

ShardedStoreOptions store_options(const SearchBackend& backend,
                                  std::uint32_t shards,
                                  std::size_t segment_records,
                                  const Upload& upload, const AnyIndex& index) {
  // Frame: header, then [u64 id][u32 len + doc_ref][u32 len + index].
  const std::size_t frame = kFrameHeaderSize + 8 + 4 + upload.doc_ref.size() +
                            4 + backend.encode_index(index).size();
  ShardedStoreOptions options;
  options.shards = shards;
  options.segment.segment_max_bytes =
      kSegmentHeaderSize + segment_records * frame;
  return options;
}

void upload_all(const SearchBackend& backend, const std::filesystem::path& dir,
                const ShardedStoreOptions& options,
                const std::vector<Upload>& uploads,
                const std::vector<EncryptedIndex>& indexes,
                std::vector<double>* us_per_append) {
  ShardedStore store(backend, dir, options);
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    const auto t = Clock::now();
    (void)store.append_any(uploads[i].doc_ref,
                           AnyIndex::ref(backend.kind(), &indexes[i]));
    if (us_per_append != nullptr) us_per_append->push_back(ms_since(t) * 1e3);
  }
  store.sync();
}

std::vector<double> decode_timings(const SearchBackend& backend,
                                   const std::vector<StoredAnyRecord>& records,
                                   std::size_t count) {
  std::vector<double> us;
  for (std::size_t i = 0; i < count && i < records.size(); ++i) {
    const std::vector<std::uint8_t> bytes =
        backend.encode_index(records[i].index);
    const auto t = Clock::now();
    (void)backend.decode_index(bytes);
    us.push_back(ms_since(t) * 1e3);
  }
  return us;
}

std::size_t thread_budget() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

}  // namespace perfbench
