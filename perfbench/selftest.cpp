// The oracle's own test cases: hand-written rows and queries with known
// answers (equality, subset, don't-care, zero-match), and proof that each
// output check refuses a damaged answer.
#include <cstdio>
#include <string>
#include <vector>

#include "fixture.h"
#include "harness.h"
#include "oracle.h"

namespace perfbench {

using apks::PlainIndex;
using apks::Query;
using apks::QueryTerm;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

Query query(std::vector<QueryTerm> terms) { return Query{std::move(terms)}; }

}  // namespace

int run_selftest() {
  failures = 0;
  const std::vector<Upload> uploads = {
      {"a", PlainIndex{{"usual", "proper", "complete"}}},
      {"b", PlainIndex{{"pretentious", "proper", "foster"}}},
      {"c", PlainIndex{{"usual", "critical", "complete"}}},
      {"d", PlainIndex{{"great_pret", "improper", "incomplete"}}},
  };
  const QueryTerm any = QueryTerm::any();

  expect(oracle_expected(uploads, query({QueryTerm::equals("usual"), any, any})) ==
             std::vector<std::string>({"a", "c"}),
         "equality on one dimension");
  expect(oracle_expected(uploads, query({QueryTerm::equals("usual"),
                                         QueryTerm::equals("critical"), any})) ==
             std::vector<std::string>({"c"}),
         "equality on two dimensions");
  expect(oracle_expected(uploads,
                         query({any, QueryTerm::subset({"proper", "improper"}),
                                any})) ==
             std::vector<std::string>({"a", "b", "d"}),
         "subset keeps upload order");
  expect(oracle_expected(uploads, query({any, any, any})) ==
             std::vector<std::string>({"a", "b", "c", "d"}),
         "all don't-care matches every row");
  expect(oracle_expected(uploads, query({QueryTerm::equals("usual"),
                                         QueryTerm::equals("improper"), any}))
             .empty(),
         "zero-match conjunction");
  expect(oracle_expected(uploads, query({QueryTerm::equals("nobody"), any, any}))
             .empty(),
         "zero-match value");
  bool threw = false;
  try {
    (void)oracle_matches(uploads[0].row, query({any, any}));
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "dimension mismatch is refused");

  // Result check: exact refs in order, nothing else.
  const std::vector<std::string> want = {"a", "b", "d"};
  expect(check_result(want, want).empty(), "identical result accepted");
  expect(!check_result({"a", "d"}, want).empty(), "dropped ref refused");
  expect(!check_result({"a", "d", "b"}, want).empty(), "reordered refs refused");
  expect(!check_result({"a", "b", "d", "d"}, want).empty(),
         "duplicated ref refused");
  expect(!check_result({}, want).empty(), "empty result refused");

  // Reload check over a two-shard store holding ids 1..4.
  ReloadView good;
  good.server_records = 4;
  good.store_records = 4;
  good.shards = {{{2, "b"}, {4, "d"}}, {{1, "a"}, {3, "c"}}};
  const std::vector<std::string> acked = {"a", "b", "c", "d"};
  expect(check_reload(good, acked).empty(), "intact reload accepted");
  {
    ReloadView v = good;
    v.server_records = 3;
    expect(!check_reload(v, acked).empty(), "server count short refused");
  }
  {
    ReloadView v = good;
    v.store_records = 5;
    expect(!check_reload(v, acked).empty(), "store count long refused");
  }
  {
    ReloadView v = good;
    v.shards[1].pop_back();
    expect(!check_reload(v, acked).empty(), "dropped record refused");
  }
  {
    ReloadView v = good;
    std::swap(v.shards[1][0], v.shards[1][1]);
    expect(!check_reload(v, acked).empty(), "descending ids refused");
  }
  {
    ReloadView v = good;
    v.shards[0][1].second = "b";
    expect(!check_reload(v, acked).empty(), "duplicated doc_ref refused");
  }
  {
    ReloadView v = good;
    v.shards[0][0].first = 6;
    v.shards[0][1].first = 8;
    v.shards[0][1].second = "e";
    expect(!check_reload(v, acked).empty(), "unknown doc_ref refused");
  }
  {
    ReloadView v = good;
    std::swap(v.shards[0], v.shards[1]);
    expect(!check_reload(v, acked).empty(), "misrouted shard refused");
  }

  // The generator's shapes match what the README promises.
  const std::vector<Upload> sample = sample_uploads(7, 64, "s");
  const QueryGen gen(7, sample);
  bool shapes_ok = true;
  for (std::uint64_t k = 0; k < 50; ++k) {
    const std::size_t hits = oracle_expected(sample, gen.make(k)).size();
    shapes_ok = shapes_ok && (k % kShapes == 4 ? hits == 0 : hits >= 1);
  }
  expect(shapes_ok, "shapes 0-3 match their anchor, shape 4 matches nothing");
  expect(sample_uploads(7, 64, "s")[10].row.values ==
                 sample[10].row.values &&
             gen.make(3).terms.size() == 9,
         "inputs are a function of the seed");

  std::printf("%d failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench
