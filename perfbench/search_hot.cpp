// search-hot: repeat queries against one node over the wire.
//
// One NetServer over a SearchEngine with the verdict cache on, loaded with
// CloudServer::load_from from a store that is mostly sealed segments plus
// a two-record active tail per shard. Two connections each hold one signed
// capability (fewer than the prepared-cache capacity) and repeat searches
// in a closed loop. The caches answer the sealed records, so the wire, the
// session and the active-tail pairings make up the request.
#include <algorithm>
#include <barrier>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cloud/search_engine.h"
#include "common/rng.h"
#include "core/apks_backend.h"
#include "ec/params.h"
#include "fixture.h"
#include "harness.h"
#include "net/client.h"
#include "net/server.h"
#include "store/sharded_store.h"

namespace perfbench {

using namespace apks;

namespace {

constexpr std::uint32_t kShards = 4;
constexpr std::size_t kSegmentRecords = 8;
// 42 records per shard: five sealed segments of eight, two in the tail.
constexpr std::size_t kRecords = kShards * (5 * kSegmentRecords + 2);
constexpr std::size_t kConnections = 2;
constexpr std::uint64_t kVerdictCacheBytes = 8u << 20;
// Nominal time of one round on the reference box: one search on every
// connection; traced, one untraced plus one traced request per connection.
constexpr double kRoundS = 0.0034;
constexpr double kTracedRoundS = 0.0135;
// Sequential in-process searches per session that the traced run counts
// pairing operations over (one thread, so the process-wide counters belong
// to exactly these searches).
constexpr std::size_t kCountedSearches = 16;

// One connection's session: its query, the oracle's answer, and what its
// loop measured.
struct Session {
  Query query;
  SignedCapability cap;
  AnyQuery any;
  AnyPrepared prepared;  // traced run: for the active-tail match_block
  std::vector<std::string> expected;
  std::vector<double> latency_ms;  // untraced round trips
  // Traced requests: round trip, in-process engine search of the same
  // session query, and match_block over the active-tail records.
  std::vector<double> traced_ms;
  std::vector<double> engine_ms;
  std::vector<double> tail_ms;
  std::uint64_t failed = 0;
  std::string failure;
  bool results_ok = true;
  double finished_ms = 0;  // since the loop start
};

}  // namespace

void run_search_hot(const Options& opt, Report& report,
                    Clock::time_point process_start) {
  ScratchDir dir(opt.work_dir, "search-hot");
  const Pairing pairing(default_type_a_params());
  ChaChaRng rng("perfbench-search-hot", opt.seed);
  const Apks scheme(pairing, bench_schema());
  Authorities auth(scheme, rng);
  const ApksBackend backend(scheme);

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

  const auto t_open = Clock::now();
  ShardedStore store(backend, dir.path() / "store", sopts);
  const double open_ms = ms_since(t_open);
  const double bytes_per_record =
      static_cast<double>(dir_bytes(dir.path() / "store")) /
      static_cast<double>(store.record_count());
  const std::size_t sealed_records =
      store.sealed_segment_ids().size() * kSegmentRecords;

  CloudServer server(backend, auth.verifier);
  const auto t_load = Clock::now();
  const std::size_t loaded = server.load_from(store);
  const double load_ms = ms_since(t_load);
  report.check(loaded == kRecords, "load_from record count");

  SearchEngine::Options eopts;
  eopts.threads = 1;  // two sessions run at once on two worker threads
  eopts.verdict_cache_bytes = kVerdictCacheBytes;
  SearchEngine engine(server, eopts);
  net::NetServerOptions nopts;
  nopts.io_threads = 1;
  nopts.worker_threads = kConnections;
  net::NetServer net_server(engine, nopts);

  const QueryGen gen(opt.seed, uploads);
  std::vector<Session> sessions(kConnections);
  std::vector<double> prepare_ms;
  for (std::size_t c = 0; c < kConnections; ++c) {
    Session& s = sessions[c];
    s.query = gen.make(c);
    s.expected = oracle_expected(uploads, s.query);
    std::optional<SignedCapability> cap =
        auth.lta->delegate_for_user(Authorities::kUser, s.query, rng);
    if (!cap) throw std::runtime_error("LTA refused an eligible query");
    s.cap = std::move(*cap);
    s.any = AnyQuery::own(SchemeKind::kApks, s.cap.cap);
    const auto t = Clock::now();
    s.prepared = backend.prepare(s.any);
    prepare_ms.push_back(ms_since(t));
  }

  // Each connection: hello, signed auth, and one untimed warm search that
  // prepares the query on the server and fills the verdict cache.
  std::vector<std::unique_ptr<net::NetClient>> clients;
  for (std::size_t c = 0; c < kConnections; ++c) {
    clients.push_back(std::make_unique<net::NetClient>());
    net::NetClient& client = *clients.back();
    client.connect("127.0.0.1", net_server.port());
    const net::HelloAckMsg hello = client.hello(SchemeKind::kApks);
    report.check(hello.status == net::WireStatus::kOk, "hello refused");
    const net::AuthAckMsg ack = client.auth_signed(
        backend.encode_query(sessions[c].any), sessions[c].cap.issuer,
        net::encode_signature(pairing.curve(), sessions[c].cap.sig));
    report.check(ack.status == net::WireStatus::kOk, "signed auth refused");
    const net::RemoteResult warm = client.search();
    report.check(warm.status == net::WireStatus::kOk &&
                     check_result(warm.refs, sessions[c].expected).empty(),
                 "warm-up search result");
  }
  const double setup_s = ms_since(process_start) / 1e3;

  // Traced-run inputs: the active-tail records, which every hot search
  // still matches with pairings.
  Tracer tracer;
  std::vector<StoredAnyRecord> tail_records;
  std::vector<const AnyIndex*> tail;
  double load_all_ms = 0;
  std::vector<double> decode_us;
  if (opt.trace) {
    std::vector<StoredAnyRecord> all;
    load_all_ms = timed_span(&tracer, "store.load_all", 0, -1,
                             [&] { all = store.load_all_any(); });
    decode_us = decode_timings(backend, all, 32);
    store.for_each_record_any_segmented(
        [&](StoredAnyRecord&& rec, const SegmentId&, bool sealed) {
          if (!sealed) tail_records.push_back(std::move(rec));
        });
    for (const StoredAnyRecord& r : tail_records) tail.push_back(&r.index);
  }

  // Closed loop, one thread per connection, `rounds` rounds each. Traced,
  // a round is an untraced request followed by a traced one, so both see
  // the same machine conditions.
  const std::size_t rounds = opt.trace ? rounds_for(opt.seconds, kTracedRoundS)
                                       : rounds_for(opt.seconds, kRoundS);
  const char* phase = opt.trace ? "traced-search" : "search";
  std::barrier start(static_cast<std::ptrdiff_t>(kConnections + 1));
  Clock::time_point loop_start;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Session& s = sessions[c];
      net::NetClient& client = *clients[c];
      auto remote = [&](std::vector<double>& into) {
        const auto t = Clock::now();
        const net::RemoteResult r = client.search();
        const double ms = ms_since(t);
        if (r.status != net::WireStatus::kOk) {
          ++s.failed;
          s.failure = "status " + std::to_string(static_cast<int>(r.status)) +
                      ": " + r.message;
          return false;
        }
        into.push_back(ms);
        s.results_ok = s.results_ok && check_result(r.refs, s.expected).empty();
        return true;
      };
      start.arrive_and_wait();
      try {
        for (std::uint64_t round = 0; round < rounds; ++round) {
          remote(s.latency_ms);
          if (!opt.trace) continue;
          const std::uint64_t id = c << 32 | round;
          const std::int64_t root = tracer.begin("request", id);
          const bool ok = remote(s.traced_ms);
          tracer.end(root);
          if (!ok) continue;
          std::vector<std::vector<std::string>> local;
          s.engine_ms.push_back(
              timed_span(&tracer, "cloud.engine_search", id, root, [&] {
                local = engine.search_batch_unchecked_any({&s.any, 1});
              }));
          s.results_ok = s.results_ok && local.size() == 1 &&
                         check_result(local[0], s.expected).empty();
          std::unique_ptr<bool[]> out(new bool[tail.size()]);
          s.tail_ms.push_back(
              timed_span(&tracer, "core.match_block", id, root, [&] {
                for (std::size_t b = 0; b < tail.size(); b += 8) {
                  backend.match_block(s.prepared, tail.data() + b,
                                      std::min<std::size_t>(8, tail.size() - b),
                                      out.get() + b);
                }
              }));
        }
      } catch (const std::exception& ex) {
        ++s.failed;
        s.failure = ex.what();
      }
      s.finished_ms = ms_since(loop_start);
    });
  }
  loop_start = Clock::now();
  start.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  for (auto& c : clients) c->close();

  double wall_ms = 0;
  std::vector<double> all_ms;
  for (const Session& s : sessions) {
    wall_ms = std::max(wall_ms, s.finished_ms);
    report.attempt(phase, s.latency_ms.size() + s.traced_ms.size() + s.failed);
    for (std::uint64_t f = 0; f < s.failed; ++f) report.fail(phase, s.failure);
    report.check(s.results_ok, "hot search result differs from the oracle");
    all_ms.insert(all_ms.end(), s.latency_ms.begin(), s.latency_ms.end());
  }
  const Summary hot = summarize(all_ms);
  const double wall_s = wall_ms / 1e3;
  const double qps = static_cast<double>(hot.n) / wall_s;

  report.text("inputs: " + std::to_string(kRecords) + " Nursery rows, " +
              std::to_string(kShards) + " shards, " +
              std::to_string(kSegmentRecords) + " records per segment: " +
              std::to_string(sealed_records) + " sealed, " +
              std::to_string(kRecords - sealed_records) +
              " in active tails; " + std::to_string(kConnections) +
              " connections");
  for (std::size_t c = 0; c < kConnections; ++c) {
    report.text("session " + std::to_string(c) + ": query shape " +
                std::to_string(c % kShapes) + ", " +
                std::to_string(sessions[c].expected.size()) + " matches");
  }

  if (!opt.trace) {
    // Little's law for the closed loop: throughput x mean latency is the
    // mean number of requests in flight, at most one per connection.
    const double in_flight = qps * hot.mean / 1e3;
    report.text("Little's law: qps x mean latency = " +
                std::to_string(in_flight) + " of " +
                std::to_string(kConnections) + " connections");
    report.check(in_flight >= 0.9 * kConnections &&
                     in_flight <= 1.0 * kConnections,
                 "Little's law: qps x mean latency = " +
                     std::to_string(in_flight));
    report.note("hot_search_p50_ms", hot.median, "ms", hot.n);
    report.note("hot_search_tail_ms", hot.tail, "ms", hot.n,
                "p" + std::to_string(hot.tail_pct));
    report.note("hot_qps", qps, "1/s", hot.n);
    report.metric("setup_s", setup_s, "s", 1);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report.metric("request_p50_ms", hot.median, "ms", hot.n);
    report.note("request_tail_ms", hot.tail, "ms", hot.n);
    report.note("request_tail_percentile", hot.tail_pct, "%", hot.n);
    report.metric("requests_per_s", qps, "1/s", hot.n);
    report.metric("records_per_s", qps * kRecords, "1/s", hot.n);
    report.metric("store_bytes_per_record", bytes_per_record, "B", kRecords);
    return;
  }

  // Counting pass: sequential in-process searches of each session query,
  // so the process-wide pairing counters and the engine's cache counters
  // belong to these searches alone.
  const PairingOpCounts ops0 = pairing.op_counts();
  const std::size_t hits0 = engine.cache_hits();
  const std::size_t misses0 = engine.cache_misses();
  const VerdictCacheStats v0 = engine.verdict_cache()->stats();
  for (Session& s : sessions) {
    for (std::size_t i = 0; i < kCountedSearches; ++i) {
      const auto local = engine.search_batch_unchecked_any({&s.any, 1});
      report.check(local.size() == 1 &&
                       check_result(local[0], s.expected).empty(),
                   "counted search result");
    }
  }
  const PairingOpCounts ops = pairing.op_counts() - ops0;
  const VerdictCacheStats v1 = engine.verdict_cache()->stats();
  const double counted = static_cast<double>(kConnections * kCountedSearches);
  const double final_exp = static_cast<double>(ops.final_exp) / counted;
  const double miller = static_cast<double>(ops.miller) / counted;
  const double hits = static_cast<double>(engine.cache_hits() - hits0);
  const double misses = static_cast<double>(engine.cache_misses() - misses0);
  const double prepared_ratio = hits + misses > 0 ? hits / (hits + misses) : 0;

  std::vector<double> traced_ms, engine_ms, match_us;
  double sum_total = 0, sum_core = 0, sum_cloud = 0, sum_net = 0;
  for (const Session& s : sessions) {
    for (std::size_t i = 0; i < s.engine_ms.size(); ++i) {
      sum_total += s.traced_ms[i];
      sum_core += s.tail_ms[i];
      sum_cloud += s.engine_ms[i] - s.tail_ms[i];
      sum_net += s.traced_ms[i] - s.engine_ms[i];
      traced_ms.push_back(s.traced_ms[i]);
      engine_ms.push_back(s.engine_ms[i]);
      match_us.push_back(s.tail_ms[i] * 1e3 / static_cast<double>(tail.size()));
    }
  }
  const std::size_t n = traced_ms.size();
  const double traced_p50 = median_of(traced_ms);
  const double engine_p50 = median_of(engine_ms);

  // The layer table's figures for this workload (README).
  report.note("cloud.verdict_hit_ratio", 1 - final_exp / kRecords, "ratio",
              kConnections * kCountedSearches,
              "records answered without pairings");
  report.note("cloud.verdict_segment_hits_per_search",
              static_cast<double>(v1.hits - v0.hits) / counted, "count",
              kConnections * kCountedSearches);
  report.note("cloud.live_records_per_search", final_exp, "count",
              kConnections * kCountedSearches);
  report.note("pairing.final_exp_per_search", final_exp, "count",
              kConnections * kCountedSearches);
  report.note("cloud.prepared_hit_ratio", prepared_ratio, "ratio",
              kConnections * kCountedSearches);
  report.note("cloud.engine_search_ms", engine_p50, "ms", n);
  report.note("net.wire_remainder_ms", traced_p50 - engine_p50, "ms", n,
              "round trip - in-process engine");
  report.note("trace.untraced_request_p50_ms", hot.median, "ms", hot.n);
  report.note("trace.traced_request_p50_ms", traced_p50, "ms", n);
  const double dn = static_cast<double>(n);
  report.text("blocking path per request (mean): core tail matches " +
              std::to_string(sum_core / dn) + " ms, cloud engine rest " +
              std::to_string(sum_cloud / dn) + " ms, net remainder " +
              std::to_string(sum_net / dn) + " ms; end to end " +
              std::to_string(sum_total / dn) + " ms");

  report.metric("path.total_ms", traced_p50, "ms", n);
  report.metric("path.auth_pct", 0, "%", n);
  report.metric("path.core_pct", 100 * sum_core / sum_total, "%", n);
  report.metric("path.cloud_pct", 100 * sum_cloud / sum_total, "%", n);
  report.metric("path.store_pct", 0, "%", n);
  report.metric("path.net_pct", 100 * sum_net / sum_total, "%", n);
  report.metric("path.cluster_pct", 0, "%", n);
  report.metric("trace.overhead_ms", traced_p50 - hot.median, "ms", n);
  report.metric("core.gen_index_ms", median_of(gen_ms), "ms", gen_ms.size());
  report.metric("core.prepare_ms", median_of(prepare_ms), "ms",
                prepare_ms.size());
  report.metric("core.match_us_per_record", median_of(match_us), "us", n);
  report.metric("core.deserialize_index_us", median_of(decode_us), "us",
                decode_us.size());
  report.metric("store.append_us", median_of(append_us), "us",
                append_us.size());
  report.metric("store.open_ms", open_ms, "ms", 1);
  report.metric("store.load_all_ms", load_all_ms, "ms", 1);
  report.metric("cloud.load_ms", load_ms, "ms", 1);
  report.metric("pairing.miller_per_request", miller, "count",
                kConnections * kCountedSearches);
  report.metric("pairing.final_exp_per_request", final_exp, "count",
                kConnections * kCountedSearches);
  report.metric("cloud.prepares_per_request", misses / counted, "count",
                kConnections * kCountedSearches);
  report.metric("cloud.verdict_hit_ratio", 1 - final_exp / kRecords, "ratio",
                kConnections * kCountedSearches);
  report.metric("cloud.prepared_hit_ratio", prepared_ratio, "ratio",
                kConnections * kCountedSearches);
  report.metric("cloud.live_records_per_request", final_exp, "count",
                kConnections * kCountedSearches);
  report.metric("cluster.rpcs_per_request", 0, "count", n);
  report.metric("cluster.retries_per_request", 0, "count", n);
  // One serving process holds every record.
  report.metric("cluster.node_records_max_over_mean", 1, "ratio", 1);
  tracer.write(opt.work_dir /
               ("trace-search-hot-" + std::to_string(opt.seed) + ".json"));
}

}  // namespace perfbench
