#include "oracle.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

namespace perfbench {

using apks::Query;
using apks::QueryTerm;

bool oracle_matches(const apks::PlainIndex& row, const Query& query) {
  if (query.terms.size() != row.values.size()) {
    throw std::invalid_argument("oracle: query/row dimension mismatch");
  }
  for (std::size_t d = 0; d < query.terms.size(); ++d) {
    const QueryTerm& term = query.terms[d];
    const std::string& value = row.values[d];
    switch (term.kind) {
      case QueryTerm::Kind::kAny:
        break;
      case QueryTerm::Kind::kEquality:
      case QueryTerm::Kind::kSubset:
        if (std::find(term.values.begin(), term.values.end(), value) ==
            term.values.end()) {
          return false;
        }
        break;
      default:
        throw std::invalid_argument("oracle: unsupported term kind");
    }
  }
  return true;
}

std::vector<std::string> oracle_expected(const std::vector<Upload>& uploads,
                                         const Query& query) {
  std::vector<std::string> out;
  for (const Upload& u : uploads) {
    if (oracle_matches(u.row, query)) out.push_back(u.doc_ref);
  }
  return out;
}

std::string check_result(const std::vector<std::string>& got,
                         const std::vector<std::string>& expected) {
  const std::size_t common = std::min(got.size(), expected.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (got[i] != expected[i]) {
      return "ref " + std::to_string(i) + " is " + got[i] + ", expected " +
             expected[i];
    }
  }
  if (got.size() != expected.size()) {
    return "got " + std::to_string(got.size()) + " refs, expected " +
           std::to_string(expected.size());
  }
  return "";
}

std::string check_reload(const ReloadView& view,
                         const std::vector<std::string>& acked) {
  const std::size_t n = acked.size();
  if (view.server_records != n) {
    return "server holds " + std::to_string(view.server_records) +
           " records, " + std::to_string(n) + " uploads were acknowledged";
  }
  if (view.store_records != n) {
    return "store holds " + std::to_string(view.store_records) +
           " records, " + std::to_string(n) + " uploads were acknowledged";
  }
  std::size_t sum = 0;
  std::set<std::uint64_t> ids;
  std::map<std::string, std::size_t> seen;
  const std::size_t shard_count = view.shards.size();
  for (std::size_t s = 0; s < shard_count; ++s) {
    const auto& frames = view.shards[s];
    sum += frames.size();
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const std::uint64_t id = frames[i].first;
      if (i > 0 && id <= frames[i - 1].first) {
        return "shard " + std::to_string(s) + " ids do not ascend at id " +
               std::to_string(id);
      }
      if (id % shard_count != s) {
        return "id " + std::to_string(id) + " stored in shard " +
               std::to_string(s);
      }
      if (!ids.insert(id).second) {
        return "id " + std::to_string(id) + " stored twice";
      }
      ++seen[frames[i].second];
    }
  }
  if (sum != n) {
    return "per-shard counts sum to " + std::to_string(sum) + ", expected " +
           std::to_string(n);
  }
  for (const std::string& ref : acked) {
    const auto it = seen.find(ref);
    const std::size_t count = it == seen.end() ? 0 : it->second;
    if (count != 1) {
      return "doc_ref " + ref + " appears " + std::to_string(count) +
             " times";
    }
  }
  if (seen.size() != n) return "store holds doc_refs nobody uploaded";
  return "";
}

}  // namespace perfbench
