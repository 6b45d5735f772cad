// ingest-reload: owners upload under APKS+, then the server restarts.
//
// Upload phase: one owner at a time (closed loop) runs GenIndex and hands
// the partial index to CloudServer::store_any, which runs the two-proxy
// chain and the canary validation and writes through to an attached
// ShardedStore under the program's default flush policy. Restart phase,
// repeated: reopen the store, then CloudServer::load_from. This is the
// write and decode side of store and core, which the search workloads pay
// only inside their set-up.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cloud/proxy.h"
#include "cloud/search_engine.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "core/apks_backend.h"
#include "ec/params.h"
#include "fixture.h"
#include "harness.h"
#include "store/segment.h"
#include "store/sharded_store.h"

namespace perfbench {

using namespace apks;
namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kShards = 4;
constexpr std::size_t kProxies = 2;
constexpr std::size_t kRowPool = 2048;  // more rows than any run uploads
constexpr std::size_t kWarmUploads = 2;
// Nominal length of one upload on the reference box; uploads fill 80% of
// the run's time. A restart reloads every upload of the run, so its cost
// grows with the run; the restart count is fixed instead.
constexpr double kUploadS = 0.048;
constexpr double kUploadShare = 0.8;
constexpr std::size_t kRestarts = 5;

// The (id, doc_ref) frames of every shard, read straight from the segment
// files — independent of the decode path a reload exercises.
std::vector<std::vector<std::pair<std::uint64_t, std::string>>> raw_frames(
    const fs::path& store_dir, std::uint32_t shards) {
  std::vector<std::vector<std::pair<std::uint64_t, std::string>>> out(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    char name[32];
    std::snprintf(name, sizeof name, "shard-%03u", s);
    std::vector<fs::path> segments;
    for (const auto& entry : fs::directory_iterator(store_dir / name)) {
      const std::string file = entry.path().filename().string();
      if (file.rfind("seg-", 0) == 0) segments.push_back(entry.path());
    }
    std::sort(segments.begin(), segments.end());  // seq order
    for (const fs::path& seg : segments) {
      (void)scan_segment(seg, [&](std::span<const std::uint8_t> payload) {
        ByteReader r(payload);
        const std::uint64_t id = r.u64();
        out[s].emplace_back(id, r.str());
      });
    }
  }
  return out;
}

}  // namespace

void run_ingest_reload(const Options& opt, Report& report,
                       Clock::time_point process_start) {
  ScratchDir dir(opt.work_dir, "ingest-reload");
  const fs::path store_dir = dir.path() / "store";
  const Pairing pairing(default_type_a_params());
  ChaChaRng rng("perfbench-ingest-reload", opt.seed);
  const ApksPlus plus(pairing, bench_schema());
  const ApksPlusSetupResult keys = plus.setup_plus(rng);
  ProxyPipeline chain = make_proxy_pipeline(plus, keys.r, kProxies, rng);
  ApksPlusBackend backend(plus);
  attach_ingest_pipeline(backend, chain);
  const Capability canary =
      plus.gen_cap(keys.msk, make_canary_query(plus.schema()), rng);
  backend.set_ingest_canary(canary);
  const AnyQuery canary_query = AnyQuery::ref(SchemeKind::kApksPlus, &canary);
  std::vector<double> prepare_ms;
  for (int i = 0; i < 3; ++i) {
    const auto t = Clock::now();
    (void)backend.prepare(canary_query);
    prepare_ms.push_back(ms_since(t));
  }
  // Owners upload without authority signatures; the verifier is unused.
  const CapabilityVerifier verifier(pairing, IbsPublicParams{});
  ShardedStoreOptions sopts;  // program defaults: segment size, no fsync/put
  sopts.shards = kShards;

  const std::vector<Upload> pool = sample_uploads(opt.seed, kRowPool, "up");
  std::vector<std::string> acked;
  auto server = std::make_unique<CloudServer>(backend, verifier);
  auto store = std::make_unique<ShardedStore>(backend, store_dir, sopts);
  server->attach_store(store.get());

  // One owner upload through the production path; returns false when the
  // server refused it (counted, not thrown).
  struct Timing {
    double gen_ms = 0;
    double admit_ms = 0;
  };
  auto upload = [&](std::size_t i, const char* phase, Timing& t) -> bool {
    report.attempt(phase);
    const auto t0 = Clock::now();
    EncryptedIndex partial =
        plus.partial_gen_index(keys.pk, pool[i].row, rng);
    t.gen_ms = ms_since(t0);
    const auto t1 = Clock::now();
    try {
      (void)server->store_any(
          AnyIndex::own(SchemeKind::kApksPlus, std::move(partial)),
          pool[i].doc_ref);
    } catch (const std::exception& ex) {
      report.fail(phase, ex.what());
      return false;
    }
    t.admit_ms = ms_since(t1);
    acked.push_back(pool[i].doc_ref);
    return true;
  };

  std::size_t next = 0;
  for (; next < kWarmUploads; ++next) {
    Timing t;
    (void)upload(next, "warm-upload", t);
  }
  const double setup_s = ms_since(process_start) / 1e3;

  // Uploads, then restarts. Traced, each upload round is a production
  // upload followed by a traced one, so both see the same machine
  // conditions; the traced one walks the admission layers one call at a
  // time, the same work store_any does (proxy chain, canary validation,
  // write-through).
  const std::size_t rounds = rounds_for(opt.seconds * kUploadShare,
                                        opt.trace ? 2 * kUploadS : kUploadS);
  if (kWarmUploads + rounds * (opt.trace ? 2 : 1) > pool.size()) {
    throw std::invalid_argument("--seconds asks for more uploads than rows");
  }
  Tracer tracer;
  std::vector<double> upload_ms, gen_ms, admit_ms;
  std::vector<double> traced_ms, t_gen, t_proxy, t_validate, t_append,
      miller, final_exp, multi;
  auto traced_upload = [&](std::size_t i) {
    report.attempt("traced-upload");
    const std::int64_t root = tracer.begin("request", i);
    EncryptedIndex partial;
    const double g = timed_span(&tracer, "core.gen_index", i, root, [&] {
      partial = plus.partial_gen_index(keys.pk, pool[i].row, rng);
    });
    try {
      AnyIndex full;
      const double p =
          timed_span(&tracer, "cloud.proxy_transform", i, root, [&] {
            full = backend.ingest_transform(
                AnyIndex::own(SchemeKind::kApksPlus, std::move(partial)));
          });
      const PairingOpCounts before = pairing.op_counts();
      const double v = timed_span(&tracer, "core.validate_ingest", i, root,
                                  [&] { backend.validate_ingest(full); });
      const PairingOpCounts ops = pairing.op_counts() - before;
      const double a = timed_span(&tracer, "store.append", i, root, [&] {
        (void)store->append_any(pool[i].doc_ref, full);
      });
      acked.push_back(pool[i].doc_ref);
      t_gen.push_back(g);
      t_proxy.push_back(p);
      t_validate.push_back(v);
      t_append.push_back(a);
      traced_ms.push_back(g + p + v + a);
      miller.push_back(static_cast<double>(ops.miller));
      final_exp.push_back(static_cast<double>(ops.final_exp));
      multi.push_back(static_cast<double>(ops.multi_miller));
    } catch (const std::exception& ex) {
      report.fail("traced-upload", ex.what());
    }
    tracer.end(root);
  };
  double upload_wall_ms = 0;
  for (std::size_t u = 0; u < rounds; ++u) {
    Timing t;
    const auto t0 = Clock::now();
    if (upload(next++, "upload", t)) {
      upload_ms.push_back(t.gen_ms + t.admit_ms);
      gen_ms.push_back(t.gen_ms);
      admit_ms.push_back(t.admit_ms);
    }
    upload_wall_ms += ms_since(t0);
    if (opt.trace) traced_upload(next++);
  }
  const double upload_wall_s = upload_wall_ms / 1e3;

  // The server goes down; closing the store flushes its buffered frames.
  server.reset();
  store.reset();
  const double bytes_per_record =
      static_cast<double>(dir_bytes(store_dir)) /
      static_cast<double>(acked.size());

  // Restart phase. Each restart is checked against the acknowledged
  // uploads.
  std::vector<double> restart_ms, open_ms, load_ms, load_all_ms, decode_us;
  double loaded_records = 0;
  SearchEngine::Options check_opts;
  check_opts.threads = thread_budget();
  for (std::uint64_t r = 0; r < kRestarts; ++r) {
    const char* phase = opt.trace ? "traced-restart" : "restart";
    report.attempt(phase);
    Tracer* spans = opt.trace ? &tracer : nullptr;
    const std::int64_t root = opt.trace ? tracer.begin("restart", r) : -1;
    std::unique_ptr<ShardedStore> reopened;
    std::unique_ptr<CloudServer> restarted;
    std::size_t loaded = 0;
    try {
      const auto t0 = Clock::now();
      const double o = timed_span(spans, "store.open", r, root, [&] {
        reopened = std::make_unique<ShardedStore>(backend, store_dir, sopts);
      });
      restarted = std::make_unique<CloudServer>(backend, verifier);
      const double l = timed_span(spans, "cloud.load_from", r, root, [&] {
        loaded = restarted->load_from(*reopened);
      });
      restart_ms.push_back(ms_since(t0));
      open_ms.push_back(o);
      load_ms.push_back(l);
      loaded_records += static_cast<double>(loaded);
    } catch (const std::exception& ex) {
      report.fail(phase, ex.what());
      if (opt.trace) tracer.end(root);
      continue;
    }
    if (opt.trace) {
      std::vector<StoredAnyRecord> all;
      load_all_ms.push_back(timed_span(&tracer, "store.load_all", r, root,
                                       [&] { all = reopened->load_all_any(); }));
      if (decode_us.empty()) decode_us = decode_timings(backend, all, 32);
      tracer.end(root);
    }
    ReloadView view;
    view.server_records = restarted->record_count();
    view.store_records = reopened->record_count();
    view.shards = raw_frames(store_dir, kShards);
    const std::string diff = check_reload(view, acked);
    report.check(diff.empty(), "reload: " + diff);
    // The restarted server answers the all-wildcard canary with every
    // acknowledged upload, each once, in upload order.
    const SearchEngine engine(*restarted, check_opts);
    const auto all = engine.search_batch_unchecked_any({&canary_query, 1});
    report.check(all.size() == 1 && check_result(all[0], acked).empty(),
                 "reloaded server: " +
                     (all.empty() ? std::string("no result")
                                  : check_result(all[0], acked)));
  }
  const double reload_rate = loaded_records / (sum_of(restart_ms) / 1e3);

  const Summary up = summarize(upload_ms);
  report.text("inputs: " + std::to_string(acked.size()) +
              " uploads acknowledged (" + std::to_string(kWarmUploads) +
              " warm-up), APKS+ with " + std::to_string(kProxies) +
              " proxies, " + std::to_string(kShards) +
              " shards, default segment size and flush policy; " +
              std::to_string(restart_ms.size()) + " restarts");
  report.note("gen_index_records_per_s",
              1e3 * static_cast<double>(gen_ms.size()) / sum_of(gen_ms), "1/s",
              gen_ms.size());
  report.note("ingest_records_per_s",
              1e3 * static_cast<double>(admit_ms.size()) / sum_of(admit_ms),
              "1/s", admit_ms.size(), "store_any admissions");
  report.note("reload_records_per_s", reload_rate, "1/s", restart_ms.size());
  report.note("store_bytes_per_record", bytes_per_record, "B", acked.size());

  if (!opt.trace) {
    report.metric("setup_s", setup_s, "s", 1);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report.metric("request_p50_ms", up.median, "ms", up.n);
    report.note("request_tail_ms", up.tail, "ms", up.n);
    report.note("request_tail_percentile", up.tail_pct, "%", up.n);
    report.metric("requests_per_s",
                  static_cast<double>(upload_ms.size()) / upload_wall_s, "1/s",
                  up.n);
    report.metric("records_per_s", reload_rate, "1/s", restart_ms.size());
    report.metric("store_bytes_per_record", bytes_per_record, "B",
                  acked.size());
    return;
  }

  const double sum_total = sum_of(traced_ms);
  const double traced_p50 = median_of(traced_ms);
  std::vector<double> match_us;
  for (double v : t_validate) match_us.push_back(v * 1e3);
  report.note("core.gen_index_ms", median_of(t_gen), "ms", t_gen.size());
  report.note("cloud.proxy_transform_ms", median_of(t_proxy), "ms",
              t_proxy.size(), std::to_string(kProxies) + " proxies");
  report.note("core.validate_ingest_ms", median_of(t_validate), "ms",
              t_validate.size());
  report.note("store.append_us", median_of(t_append) * 1e3, "us",
              t_append.size());
  report.note("store.open_ms", median_of(open_ms), "ms", open_ms.size());
  report.note("store.load_all_ms", median_of(load_all_ms), "ms",
              load_all_ms.size());
  report.note("core.deserialize_index_us", median_of(decode_us), "us",
              decode_us.size());
  report.note("cloud.load_from_ms", median_of(load_ms), "ms", load_ms.size());
  report.note("trace.untraced_request_p50_ms", up.median, "ms", up.n);
  report.note("trace.traced_request_p50_ms", traced_p50, "ms",
              traced_ms.size());
  const double n = static_cast<double>(traced_ms.size());
  report.text("blocking path per upload (mean): core gen_index " +
              std::to_string(sum_of(t_gen) / n) + " ms, cloud proxies " +
              std::to_string(sum_of(t_proxy) / n) + " ms, core validate " +
              std::to_string(sum_of(t_validate) / n) + " ms, store append " +
              std::to_string(sum_of(t_append) / n) + " ms");

  report.metric("path.total_ms", traced_p50, "ms", traced_ms.size());
  report.metric("path.auth_pct", 0, "%", traced_ms.size());
  report.metric("path.core_pct",
                100 * (sum_of(t_gen) + sum_of(t_validate)) / sum_total, "%",
                traced_ms.size());
  report.metric("path.cloud_pct", 100 * sum_of(t_proxy) / sum_total, "%",
                traced_ms.size());
  report.metric("path.store_pct", 100 * sum_of(t_append) / sum_total, "%",
                traced_ms.size());
  report.metric("path.net_pct", 0, "%", traced_ms.size());
  report.metric("path.cluster_pct", 0, "%", traced_ms.size());
  report.metric("trace.overhead_ms", traced_p50 - up.median, "ms",
                traced_ms.size());
  report.metric("core.gen_index_ms", median_of(t_gen), "ms", t_gen.size());
  report.metric("core.prepare_ms", median_of(prepare_ms), "ms",
                prepare_ms.size());
  report.metric("core.match_us_per_record", median_of(match_us), "us",
                match_us.size());
  report.metric("core.deserialize_index_us", median_of(decode_us), "us",
                decode_us.size());
  report.metric("store.append_us", median_of(t_append) * 1e3, "us",
                t_append.size());
  report.metric("store.open_ms", median_of(open_ms), "ms", open_ms.size());
  report.metric("store.load_all_ms", median_of(load_all_ms), "ms",
                load_all_ms.size());
  report.metric("cloud.load_ms", median_of(load_ms), "ms", load_ms.size());
  report.metric("pairing.miller_per_request", mean_of(miller), "count",
                miller.size());
  report.metric("pairing.final_exp_per_request", mean_of(final_exp), "count",
                final_exp.size());
  report.metric("cloud.prepares_per_request", 0, "count", traced_ms.size());
  // Each admission matches its one record against the canary live.
  report.metric("cloud.verdict_hit_ratio", 0, "ratio", traced_ms.size());
  report.metric("cloud.prepared_hit_ratio", 0, "ratio", traced_ms.size());
  report.metric("cloud.live_records_per_request", mean_of(multi), "count",
                multi.size());
  report.metric("cluster.rpcs_per_request", 0, "count", traced_ms.size());
  report.metric("cluster.retries_per_request", 0, "count", traced_ms.size());
  report.metric("cluster.node_records_max_over_mean", 1, "ratio", 1);
  tracer.write(opt.work_dir /
               ("trace-ingest-reload-" + std::to_string(opt.seed) + ".json"));
}

}  // namespace perfbench
