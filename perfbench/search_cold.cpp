// search-cold: new users' queries through a loopback cluster.
//
// A coordinator and two in-process ClusterNodes serve a sealed-segment
// ShardedStore (six shards, three per node, R=1). Each request is a query
// nobody asked before: the LTA issues a capability for it, then one client
// runs Coordinator::search_signed (closed loop). Every request pays edge
// verification, per-shard prepare, the full pairing scan and the scatter;
// the verdict and prepared caches answer nothing here.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/node.h"
#include "common/rng.h"
#include "core/apks_backend.h"
#include "ec/params.h"
#include "fixture.h"
#include "harness.h"
#include "net/client.h"
#include "store/sharded_store.h"

namespace perfbench {

using namespace apks;

namespace {

constexpr std::size_t kRecords = 384;
constexpr std::uint32_t kShards = 6;
constexpr std::size_t kNodes = 2;
// Both nodes scan at once, so two scan threads each fill the 4-thread
// budget.
constexpr std::size_t kEngineThreads = 2;
constexpr std::size_t kSegmentRecords = 16;  // 4 sealed segments per shard
// Nominal length of one round (one query of each shape) on the reference
// box; a traced round is one untraced plus one traced pass of the shapes.
constexpr double kRoundS = 2.2;
constexpr double kTracedRoundS = 6.5;

// Node names are HRW placement's only input; take the first name pair
// (independent of the seed) that splits the shards evenly.
std::vector<cluster::NodeInfo> balanced_nodes() {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    std::vector<cluster::NodeInfo> infos;
    for (std::size_t i = 0; i < kNodes; ++i) {
      infos.push_back({"node-" + std::to_string(attempt) + "-" +
                           std::to_string(i),
                       "127.0.0.1", 0});
    }
    const cluster::ClusterMap map(infos, kShards, 1);
    bool even = true;
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      even = even && map.shards_of(n).size() == kShards / kNodes;
    }
    if (even) return infos;
  }
  throw std::runtime_error("no balanced node naming found");
}

struct Fleet {
  std::vector<std::unique_ptr<cluster::ClusterNode>> nodes;
  cluster::ClusterMap map;
  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    for (auto& node : nodes) node->stop();
  }
};

void start_fleet(Fleet& fleet, const ApksBackend& backend,
                 const CapabilityVerifier& verifier, ShardedStore& store) {
  std::vector<cluster::NodeInfo> infos = balanced_nodes();
  const cluster::ClusterMap port0(infos, kShards, 1);
  for (std::size_t i = 0; i < kNodes; ++i) {
    cluster::ClusterNodeOptions opts;
    opts.engine.threads = kEngineThreads;
    opts.net.allow_unchecked = true;  // the coordinator's internal hop
    opts.net.io_threads = 1;
    opts.net.worker_threads = 1;
    fleet.nodes.push_back(std::make_unique<cluster::ClusterNode>(
        backend, verifier, store, port0, static_cast<std::uint32_t>(i),
        std::move(opts)));
    infos[i].port = fleet.nodes.back()->port();
  }
  fleet.map = cluster::ClusterMap(std::move(infos), kShards, 1);
}

// Prepared-query cache counters summed over every shard engine.
struct CacheTotals {
  std::uint64_t misses = 0;
  std::uint64_t hits = 0;
};
CacheTotals cache_totals(const Fleet& fleet) {
  CacheTotals t;
  for (const auto& node : fleet.nodes) {
    for (const auto& entry : node->server().shard_set()->shards) {
      t.misses += entry.second->cache_misses();
      t.hits += entry.second->cache_hits();
    }
  }
  return t;
}

std::vector<std::string> refs_of(const std::vector<net::ShardHit>& hits) {
  std::vector<std::string> out;
  for (const net::ShardHit& h : hits) out.push_back(h.ref);
  return out;
}

// The expected answer restricted to some shards (ids are upload index + 1,
// routed id % shards).
std::vector<std::string> expected_on(const std::vector<Upload>& uploads,
                                     const Query& q,
                                     const std::vector<std::uint32_t>& shards) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    const auto shard = static_cast<std::uint32_t>((i + 1) % kShards);
    if (std::find(shards.begin(), shards.end(), shard) != shards.end() &&
        oracle_matches(uploads[i].row, q)) {
      out.push_back(uploads[i].doc_ref);
    }
  }
  return out;
}

// Per-request figures of the traced passes.
struct TraceAcc {
  double total = 0, auth = 0, core = 0, cloud = 0, net = 0, cluster = 0;
  std::vector<double> request_ms, verify_ms, slow_rpc_ms, scatter_rem_ms,
      match_us, rpcs, retries, prepares, prepared_hits, lookups, miller,
      final_exp, live, scanned;
};

}  // namespace

void run_search_cold(const Options& opt, Report& report,
                     Clock::time_point process_start) {
  ScratchDir dir(opt.work_dir, "search-cold");
  const Pairing pairing(default_type_a_params());
  ChaChaRng rng("perfbench-search-cold", opt.seed);
  const Apks scheme(pairing, bench_schema());
  Authorities auth(scheme, rng);
  const ApksBackend backend(scheme);

  // Owners encrypt and upload; the owners' store is closed afterwards.
  const std::vector<Upload> uploads = sample_uploads(opt.seed, kRecords, "doc");
  std::vector<double> gen_ms;
  const std::vector<EncryptedIndex> indexes = generate_indexes(
      scheme, auth.ta.public_key(), uploads, opt.seed, thread_budget(),
      &gen_ms);
  const ShardedStoreOptions sopts = store_options(
      backend, kShards, kSegmentRecords, uploads[0],
      AnyIndex::ref(SchemeKind::kApks, &indexes[0]));
  std::vector<double> append_us;
  upload_all(backend, dir.path() / "store", sopts, uploads, indexes,
             &append_us);

  // The serving side opens the store and starts the fleet.
  const auto t_open = Clock::now();
  ShardedStore store(backend, dir.path() / "store", sopts);
  const double open_ms = ms_since(t_open);
  report.check(store.record_count() == kRecords, "store record count");
  const double bytes_per_record =
      static_cast<double>(dir_bytes(dir.path() / "store")) /
      static_cast<double>(store.record_count());
  // Every sealed segment holds exactly kSegmentRecords records.
  const std::size_t sealed_records =
      store.sealed_segment_ids().size() * kSegmentRecords;

  Fleet fleet;
  const auto t_fleet = Clock::now();
  start_fleet(fleet, backend, auth.verifier, store);
  const double load_ms = ms_since(t_fleet);
  double max_node = 0;
  double sum_node = 0;
  for (const auto& node : fleet.nodes) {
    const auto r = static_cast<double>(node->record_count());
    max_node = std::max(max_node, r);
    sum_node += r;
  }
  const double node_skew = max_node / (sum_node / kNodes);
  report.check(static_cast<std::size_t>(sum_node) == kRecords,
               "fleet record count");

  cluster::Coordinator coord(backend, auth.verifier, fleet.map);
  const QueryGen gen(opt.seed, uploads);

  // One production request: issue a capability for query k, search it,
  // check it. A failed operation is counted and skipped, not thrown.
  std::vector<double> total_ms, issue_ms, search_ms;
  std::vector<std::size_t> matches_by_shape[kShapes];
  std::vector<double> issue_by_shape[kShapes], search_by_shape[kShapes];
  auto request = [&](std::uint64_t k, bool record) {
    const char* phase = record ? "search" : "warm-search";
    const Query q = gen.make(k);
    const std::vector<std::string> expected = oracle_expected(uploads, q);
    report.attempt(phase);
    const auto t0 = Clock::now();
    std::optional<SignedCapability> cap =
        auth.lta->delegate_for_user(Authorities::kUser, q, rng);
    const double issue = ms_since(t0);
    if (!cap) {
      report.fail(phase, "LTA refused an eligible query");
      return;
    }
    cluster::ClusterSearchStats stats;
    std::vector<std::string> refs;
    double search = 0;
    try {
      const auto t1 = Clock::now();
      refs = coord.search_signed(to_signed_query(*cap), &stats);
      search = ms_since(t1);
    } catch (const std::exception& ex) {
      report.fail(phase, ex.what());
      return;
    }
    const std::string diff = check_result(refs, expected);
    report.check(stats.authorized, "edge refused a valid capability");
    report.check(diff.empty(), "cold search result: " + diff);
    report.check(!stats.partial && stats.shards_failed == 0,
                 "cold search came back partial");
    if (!record) return;
    const std::size_t shape = k % kShapes;
    total_ms.push_back(issue + search);
    issue_ms.push_back(issue);
    search_ms.push_back(search);
    matches_by_shape[shape].push_back(expected.size());
    issue_by_shape[shape].push_back(issue);
    search_by_shape[shape].push_back(search);
  };

  // Warm the precomputation tables, the node connections and the first
  // request of each session: one untimed round (these k are never reused).
  constexpr std::uint64_t kWarmBase = 1u << 30;
  for (std::uint64_t k = 0; k < kShapes; ++k) request(kWarmBase + k, false);
  const double setup_s = ms_since(process_start) / 1e3;

  // ---- traced-run inputs ---------------------------------------------------
  // A traced request runs the production path (capability B) in spans,
  // then walks the same query through the layers one at a time under a
  // second capability A for it, which is cold everywhere: verify ->
  // prepare per shard -> shard RPC per node -> engine scan per shard ->
  // match_block on one shard.
  Tracer tracer;
  TraceAcc acc;
  std::vector<StoredAnyRecord> all;
  std::vector<std::vector<const AnyIndex*>> by_shard(kShards);
  std::vector<std::unique_ptr<net::NetClient>> clients;
  double load_all_ms = 0;
  std::vector<double> decode_us;
  if (opt.trace) {
    load_all_ms = timed_span(&tracer, "store.load_all", 0, -1,
                             [&] { all = store.load_all_any(); });
    for (const StoredAnyRecord& r : all) {
      by_shard[r.id % kShards].push_back(&r.index);
    }
    decode_us = decode_timings(backend, all, 32);
    for (const cluster::NodeInfo& info : fleet.map.nodes()) {
      clients.push_back(std::make_unique<net::NetClient>());
      clients.back()->connect(info.host, info.port);
      (void)clients.back()->hello(SchemeKind::kApks);
    }
  }

  auto traced_request = [&](std::uint64_t k) {
    const Query q = gen.make(k);
    const std::vector<std::string> expected = oracle_expected(uploads, q);
    report.attempt("traced-search");
    const std::int64_t root = tracer.begin("request", k);
    std::optional<SignedCapability> cap_b;
    const double issue_b = timed_span(&tracer, "auth.issue", k, root, [&] {
      cap_b = auth.lta->delegate_for_user(Authorities::kUser, q, rng);
    });
    std::optional<SignedCapability> cap_a =
        auth.lta->delegate_for_user(Authorities::kUser, q, rng);
    if (!cap_b || !cap_a) {
      report.fail("traced-search", "LTA refused an eligible query");
      tracer.end(root);
      return;
    }
    const CacheTotals c0 = cache_totals(fleet);
    const PairingOpCounts ops0 = pairing.op_counts();
    cluster::ClusterSearchStats stats;
    std::vector<std::string> refs;
    double coord_ms = 0;
    try {
      coord_ms = timed_span(&tracer, "cluster.coordinator", k, root, [&] {
        refs = coord.search_signed(to_signed_query(*cap_b), &stats);
      });
    } catch (const std::exception& ex) {
      report.fail("traced-search", ex.what());
      tracer.end(root);
      return;
    }
    const PairingOpCounts ops = pairing.op_counts() - ops0;
    const CacheTotals c1 = cache_totals(fleet);
    report.check(check_result(refs, expected).empty(),
                 "traced cold search result");

    // Layer walk under capability A.
    const SignedQuery sq_a = to_signed_query(*cap_a);
    bool verified = false;
    const PairingOpCounts verify0 = pairing.op_counts();
    const double verify = timed_span(&tracer, "auth.verify", k, root, [&] {
      verified = auth.verifier.verify(backend, sq_a);
    });
    const PairingOpCounts verify_ops = pairing.op_counts() - verify0;
    report.check(verified, "verifier refused a valid capability");
    std::vector<double> node_prepare(kNodes, 0), node_scan(kNodes, 0),
        node_rpc(kNodes, 0), node_shard_rpc(kNodes, 0);
    AnyPrepared prepared;
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      for (std::size_t s = 0; s < fleet.map.shards_of(n).size(); ++s) {
        node_prepare[n] += timed_span(&tracer, "core.prepare", k, root, [&] {
          prepared = backend.prepare(sq_a.query);
        });
      }
    }
    const std::vector<std::uint8_t> query_bytes =
        backend.encode_query(sq_a.query);
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      const std::vector<std::uint32_t> owned = fleet.map.shards_of(n);
      net::ShardRemoteResult result;
      const double auth_ms =
          timed_span(&tracer, "net.session_auth", k, root,
                     [&] { (void)clients[n]->auth_unchecked(query_bytes); });
      node_shard_rpc[n] = timed_span(&tracer, "net.shard_rpc", k, root, [&] {
        result = clients[n]->shard_search(owned, fleet.map.version(),
                                          fleet.map.total_shards());
      });
      node_rpc[n] = auth_ms + node_shard_rpc[n];
      report.check(result.status == net::WireStatus::kOk &&
                       check_result(refs_of(result.hits),
                                    expected_on(uploads, q, owned))
                           .empty(),
                   "shard RPC result");
    }
    // The node engines now hold A prepared, so these time the scan alone.
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      for (const auto& [shard, engine] :
           fleet.nodes[n]->server().shard_set()->shards) {
        std::vector<std::vector<std::string>> res;
        std::vector<std::vector<std::uint64_t>> ids;
        node_scan[n] += timed_span(&tracer, "cloud.shard_scan", k, root, [&] {
          res = engine->search_batch_unchecked_any_ids({&sq_a.query, 1}, &ids);
        });
        report.check(res.size() == 1 &&
                         check_result(res[0], expected_on(uploads, q, {shard}))
                             .empty(),
                     "in-process shard scan result");
      }
    }
    const std::vector<const AnyIndex*>& recs = by_shard[0];
    std::unique_ptr<bool[]> out(new bool[recs.size()]);
    const double match_ms = timed_span(&tracer, "core.match_block", k, root, [&] {
      for (std::size_t b = 0; b < recs.size(); b += 8) {
        backend.match_block(prepared, recs.data() + b,
                            std::min<std::size_t>(8, recs.size() - b),
                            out.get() + b);
      }
    });
    tracer.end(root);

    // The blocking path runs through the slowest node. net and cluster are
    // the remainders the layers below them do not account for.
    const std::size_t slow = static_cast<std::size_t>(
        std::max_element(node_rpc.begin(), node_rpc.end()) - node_rpc.begin());
    const double total = issue_b + coord_ms;
    acc.total += total;
    acc.auth += issue_b + verify;
    acc.core += node_prepare[slow];
    acc.cloud += node_scan[slow];
    acc.net += node_rpc[slow] - node_prepare[slow] - node_scan[slow];
    acc.cluster += coord_ms - verify - node_rpc[slow];
    acc.request_ms.push_back(total);
    acc.verify_ms.push_back(verify);
    acc.slow_rpc_ms.push_back(node_shard_rpc[slow]);
    acc.scatter_rem_ms.push_back(coord_ms - node_rpc[slow]);
    acc.match_us.push_back(match_ms * 1e3 / static_cast<double>(recs.size()));
    acc.rpcs.push_back(static_cast<double>(stats.rpcs));
    acc.retries.push_back(static_cast<double>(stats.retries));
    acc.scanned.push_back(static_cast<double>(stats.scanned));
    acc.prepares.push_back(static_cast<double>(c1.misses - c0.misses));
    acc.prepared_hits.push_back(static_cast<double>(c1.hits - c0.hits));
    acc.lookups.push_back(
        static_cast<double>(c1.misses - c0.misses + c1.hits - c0.hits));
    acc.miller.push_back(static_cast<double>(ops.miller));
    acc.final_exp.push_back(static_cast<double>(ops.final_exp));
    // Records answered by a pairing product: the search's final
    // exponentiations less the edge verification's.
    acc.live.push_back(
        static_cast<double>(ops.final_exp - verify_ops.final_exp));
  };

  // ---- measured phase --------------------------------------------------------
  // Untraced: whole rounds of production requests. Traced: each round is
  // an untraced pass of the shapes followed by a traced pass, so both see
  // the same machine conditions and their difference is the overhead.
  std::uint64_t k = 0;
  const std::size_t rounds =
      opt.trace ? rounds_for(opt.seconds, kTracedRoundS)
                : rounds_for(opt.seconds, kRoundS);
  const auto loop_start = Clock::now();
  double untraced_ms = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    const auto pass = Clock::now();
    for (std::size_t s = 0; s < kShapes; ++s) request(k++, true);
    untraced_ms += ms_since(pass);
    if (opt.trace) {
      for (std::size_t s = 0; s < kShapes; ++s) traced_request(k++);
    }
  }
  const double wall_s =
      (opt.trace ? untraced_ms : ms_since(loop_start)) / 1e3;
  for (auto& c : clients) c->close();

  const Summary total = summarize(total_ms);
  const Summary issue = summarize(issue_ms);
  const Summary search = summarize(search_ms);
  const double requests = static_cast<double>(total_ms.size());
  report.text("inputs: " + std::to_string(kRecords) + " Nursery rows, " +
              std::to_string(kShards) + " shards over " +
              std::to_string(kNodes) + " nodes (R=1), " +
              std::to_string(kSegmentRecords) + " records per segment: " +
              std::to_string(sealed_records) + " sealed, " +
              std::to_string(kRecords - sealed_records) + " in active tails");
  for (std::size_t s = 0; s < kShapes; ++s) {
    auto& m = matches_by_shape[s];
    if (m.empty()) continue;
    std::sort(m.begin(), m.end());
    report.text("query shape " + std::to_string(s) + ": " +
                std::to_string(m.size()) + " queries, matches min " +
                std::to_string(m.front()) + " median " +
                std::to_string(m[m.size() / 2]) + " max " +
                std::to_string(m.back()) + "; issue p50 " +
                std::to_string(median_of(issue_by_shape[s])) +
                " ms, search p50 " +
                std::to_string(median_of(search_by_shape[s])) + " ms");
  }
  report.note("cap_issue_p50_ms", issue.median, "ms", issue.n);
  report.note("cold_search_p50_ms", search.median, "ms", search.n);
  report.note("cold_search_tail_ms", search.tail, "ms", search.n,
              "p" + std::to_string(search.tail_pct));
  report.note("cold_probes_per_s", requests * kRecords / wall_s, "1/s",
              total.n);

  if (!opt.trace) {
    report.metric("setup_s", setup_s, "s", 1);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report.metric("request_p50_ms", total.median, "ms", total.n);
    report.note("request_tail_ms", total.tail, "ms", total.n);
    report.note("request_tail_percentile", total.tail_pct, "%", total.n);
    report.metric("requests_per_s", requests / wall_s, "1/s", total.n);
    report.metric("records_per_s", requests * kRecords / wall_s, "1/s",
                  total.n);
    report.metric("store_bytes_per_record", bytes_per_record, "B", kRecords);
    return;
  }

  const std::size_t n = acc.request_ms.size();
  const std::vector<double> issue_spans = tracer.durations("auth.issue");
  const std::vector<double> prepare_spans = tracer.durations("core.prepare");
  const std::vector<double> scan_spans = tracer.durations("cloud.shard_scan");
  const double live = mean_of(acc.live);
  const double scanned = mean_of(acc.scanned);
  const double traced_p50 = median_of(acc.request_ms);

  // The layer table's figures for this workload (README).
  report.note("auth.issue_ms", median_of(issue_spans), "ms", issue_spans.size());
  report.note("auth.verify_ms", median_of(acc.verify_ms), "ms", n);
  report.note("core.prepare_ms", median_of(prepare_spans), "ms",
              prepare_spans.size());
  report.note("cloud.prepares_per_search", mean_of(acc.prepares), "count", n);
  report.note("cloud.shard_scan_ms", median_of(scan_spans), "ms",
              scan_spans.size());
  report.note("net.shard_rpc_ms", median_of(acc.slow_rpc_ms), "ms", n,
              "slowest node");
  report.note("cluster.scatter_remainder_ms", median_of(acc.scatter_rem_ms),
              "ms", n, "coordinator - slowest node RPC");
  report.note("cluster.rpcs_per_search", mean_of(acc.rpcs), "count", n);
  report.note("cluster.retries", sum_of(acc.retries), "count", n);
  report.note("cluster.node_records_max_over_mean", node_skew, "ratio", kNodes);
  report.note("core.match_us_per_record", median_of(acc.match_us), "us", n);
  report.note("pairing.miller_per_search", mean_of(acc.miller), "count", n,
              "whole process, edge verify included");
  report.note("pairing.final_exp_per_search", mean_of(acc.final_exp), "count",
              n, "whole process, edge verify included");
  report.note("trace.untraced_request_p50_ms", total.median, "ms", total.n);
  report.note("trace.traced_request_p50_ms", traced_p50, "ms", n);
  const double dn = static_cast<double>(n);
  report.text("blocking path per request (mean): auth " +
              std::to_string(acc.auth / dn) + " ms, core prepare " +
              std::to_string(acc.core / dn) + " ms, cloud scan " +
              std::to_string(acc.cloud / dn) + " ms, net remainder " +
              std::to_string(acc.net / dn) + " ms, cluster remainder " +
              std::to_string(acc.cluster / dn) + " ms; end to end " +
              std::to_string(acc.total / dn) + " ms");

  report.metric("path.total_ms", traced_p50, "ms", n);
  report.metric("path.auth_pct", 100 * acc.auth / acc.total, "%", n);
  report.metric("path.core_pct", 100 * acc.core / acc.total, "%", n);
  report.metric("path.cloud_pct", 100 * acc.cloud / acc.total, "%", n);
  report.metric("path.store_pct", 0, "%", n);
  report.metric("path.net_pct", 100 * acc.net / acc.total, "%", n);
  report.metric("path.cluster_pct", 100 * acc.cluster / acc.total, "%", n);
  report.metric("trace.overhead_ms", traced_p50 - total.median, "ms", n);
  report.metric("core.gen_index_ms", median_of(gen_ms), "ms", gen_ms.size());
  report.metric("core.prepare_ms", median_of(prepare_spans), "ms",
                prepare_spans.size());
  report.metric("core.match_us_per_record", median_of(acc.match_us), "us", n);
  report.metric("core.deserialize_index_us", median_of(decode_us), "us",
                decode_us.size());
  report.metric("store.append_us", median_of(append_us), "us",
                append_us.size());
  report.metric("store.open_ms", open_ms, "ms", 1);
  report.metric("store.load_all_ms", load_all_ms, "ms", 1);
  report.metric("cloud.load_ms", load_ms, "ms", 1);
  report.metric("pairing.miller_per_request", mean_of(acc.miller), "count", n);
  report.metric("pairing.final_exp_per_request", mean_of(acc.final_exp),
                "count", n);
  report.metric("cloud.prepares_per_request", mean_of(acc.prepares), "count",
                n);
  report.metric("cloud.verdict_hit_ratio",
                scanned > 0 ? 1 - live / scanned : 0, "ratio", n);
  report.metric("cloud.prepared_hit_ratio",
                sum_of(acc.lookups) > 0
                    ? sum_of(acc.prepared_hits) / sum_of(acc.lookups)
                    : 0,
                "ratio", n);
  report.metric("cloud.live_records_per_request", live, "count", n);
  report.metric("cluster.rpcs_per_request", mean_of(acc.rpcs), "count", n);
  report.metric("cluster.retries_per_request", mean_of(acc.retries), "count",
                n);
  report.metric("cluster.node_records_max_over_mean", node_skew, "ratio",
                kNodes);
  tracer.write(opt.work_dir /
               ("trace-search-cold-" + std::to_string(opt.seed) + ".json"));
}

}  // namespace perfbench
