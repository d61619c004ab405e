#include "tomo/cnf_builder.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/serde.h"

namespace ct::tomo {

namespace {

void save_cnf_key(util::ByteWriter& w, const CnfKey& key) {
  w.i32(key.url_id);
  w.u8(static_cast<std::uint8_t>(key.anomaly));
  w.u8(static_cast<std::uint8_t>(key.granularity));
  w.i32(key.window);
}

CnfKey load_cnf_key(util::ByteReader& r) {
  CnfKey key;
  key.url_id = r.i32();
  key.anomaly = static_cast<censor::Anomaly>(r.u8());
  key.granularity = static_cast<util::Granularity>(r.u8());
  key.window = r.i32();
  return key;
}

void save_path_id(util::ByteWriter& w, PathPool::PathId id) { w.i32(id); }
PathPool::PathId load_path_id(util::ByteReader& r) { return r.i32(); }

}  // namespace

sat::Var TomoCnf::var_of(topo::AsId as) const {
  for (std::size_t v = 0; v < vars.size(); ++v) {
    if (vars[v] == as) return static_cast<sat::Var>(v);
  }
  return -1;
}

namespace {

std::int64_t window_end(std::int32_t window, util::Granularity g) {
  return static_cast<std::int64_t>(util::window_start(window, g)) + util::window_length(g);
}

std::vector<util::Granularity> distinct_sorted(std::vector<util::Granularity> grans) {
  std::sort(grans.begin(), grans.end());
  grans.erase(std::unique(grans.begin(), grans.end()), grans.end());
  return grans;
}

}  // namespace

StreamingCnfBuilder::StreamingCnfBuilder(CnfBuildOptions options)
    : options_(std::move(options)), grans_(distinct_sorted(options_.granularities)) {}

StreamingCnfBuilder::StreamingCnfBuilder(CnfBuildOptions options, const PathPool* pool)
    : options_(std::move(options)),
      grans_(distinct_sorted(options_.granularities)),
      borrowed_pool_(pool) {}

std::size_t StreamingCnfBuilder::chain_base(std::int32_t url_id, censor::Anomaly anomaly) {
  const std::uint64_t key = util::pack_ids(url_id, static_cast<std::int32_t>(anomaly));
  const std::int32_t found = chain_index_.find(key);
  if (found != util::FlatIndex::kAbsent) return static_cast<std::size_t>(found);
  const std::size_t base = chains_.size();
  chain_index_.emplace(key, static_cast<std::int32_t>(base));
  for (const util::Granularity g : grans_) {
    chains_.push_back(Chain{ChainKey{url_id, anomaly, g}, {}});
  }
  // The new chains are one key-contiguous block of chain_order_.
  const auto at = std::lower_bound(
      chain_order_.begin(), chain_order_.end(), chains_[base].key,
      [this](std::size_t i, const ChainKey& k) { return chains_[i].key < k; });
  std::vector<std::size_t> block(grans_.size());
  std::iota(block.begin(), block.end(), base);
  chain_order_.insert(at, block.begin(), block.end());
  return base;
}

StreamingCnfBuilder::Group& StreamingCnfBuilder::group_of(Chain& chain, std::int32_t window) {
  // Stream order is day-ascending, so the window is almost always the
  // chain's newest; anything else is a sorted insert.
  if (!chain.open.empty() && chain.open.back().window == window) return chain.open.back();
  auto it = chain.open.end();
  if (!chain.open.empty() && chain.open.back().window > window) {
    it = std::lower_bound(chain.open.begin(), chain.open.end(), window,
                          [](const Group& g, std::int32_t w) { return g.window < w; });
    if (it->window == window) return *it;
  }
  ++open_groups_;
  Group group;
  group.window = window;
  return *chain.open.insert(it, std::move(group));
}

void StreamingCnfBuilder::add(const PathPool& pool, const PathClause& clause) {
  if (clause.day < watermark_) {
    throw std::logic_error("StreamingCnfBuilder::add: clause for day " +
                           std::to_string(clause.day) + " arrived after watermark " +
                           std::to_string(watermark_) + " (window already emitted)");
  }
  // Borrowed pool: ids are already canonical there, no re-intern.
  const PathPool::PathId path_id =
      borrowed_pool_ ? clause.path_id : pool_.intern(pool.get(clause.path_id));
  if (path_id < 0 || static_cast<std::size_t>(path_id) >= this->pool().size()) {
    throw std::out_of_range("StreamingCnfBuilder::add: path id " + std::to_string(path_id) +
                            " is not in the pool");
  }
  if (grans_.empty()) return;
  const std::size_t base = chain_base(clause.url_id, clause.anomaly);
  for (std::size_t gi = 0; gi < grans_.size(); ++gi) {
    Group& group = group_of(chains_[base + gi], util::window_of(clause.day, grans_[gi]));
    if (clause.observed) {
      if (group.positive_seen.insert(path_id)) group.positive_ids.push_back(path_id);
    } else {
      group.negative_seen.insert(path_id);
    }
  }
}

void StreamingCnfBuilder::cover_as(topo::AsId as) {
  if (as < 0) {
    throw std::invalid_argument("StreamingCnfBuilder: negative AS id " + std::to_string(as) +
                                " on a path");
  }
  if (static_cast<std::size_t>(as) < as_seen_.size()) return;
  const std::size_t n = static_cast<std::size_t>(as) + 1;
  as_seen_.resize(n, 0);
  as_negative_.resize(n, 0);
  as_in_clause_.resize(n, 0);
  var_of_as_.resize(n, -1);
}

TomoCnf StreamingCnfBuilder::build_group(const ChainKey& chain, const Group& group) {
  TomoCnf tc;
  tc.key = CnfKey{chain.url_id, chain.anomaly, chain.granularity, group.window};
  const PathPool& paths = pool();
  if (++group_stamp_ == 0) {  // wrapped: clear every mark once
    std::fill(as_seen_.begin(), as_seen_.end(), 0);
    std::fill(as_negative_.begin(), as_negative_.end(), 0);
    group_stamp_ = 1;
  }
  const std::uint32_t stamp = group_stamp_;

  // Variable space: every AS observed in this CNF's clauses, ascending.
  const auto note = [&](topo::AsId as) {
    cover_as(as);
    const auto a = static_cast<std::size_t>(as);
    if (as_seen_[a] != stamp) {
      as_seen_[a] = stamp;
      tc.vars.push_back(as);
    }
  };
  group.negative_seen.for_each([&](PathPool::PathId id) {
    for (const topo::AsId as : paths.get(id)) {
      note(as);
      as_negative_[static_cast<std::size_t>(as)] = stamp;
    }
  });
  for (const PathPool::PathId id : group.positive_ids) {
    for (const topo::AsId as : paths.get(id)) note(as);
  }
  std::sort(tc.vars.begin(), tc.vars.end());
  for (std::size_t v = 0; v < tc.vars.size(); ++v) {
    var_of_as_[static_cast<std::size_t>(tc.vars[v])] = static_cast<sat::Var>(v);
  }
  tc.cnf.num_vars = static_cast<std::int32_t>(tc.vars.size());

  // Negative units, ascending by AS (hence by variable).
  for (const topo::AsId as : tc.vars) {
    const auto a = static_cast<std::size_t>(as);
    if (as_negative_[a] != stamp) continue;
    tc.cnf.add_clause({sat::Lit(var_of_as_[a], /*negated=*/true)});
    ++tc.num_negative_units;
  }
  // Positive disjunctions, one literal per distinct AS in path order.
  for (const PathPool::PathId id : group.positive_ids) {
    const auto& path = paths.get(id);
    if (++clause_stamp_ == 0) {
      std::fill(as_in_clause_.begin(), as_in_clause_.end(), 0);
      clause_stamp_ = 1;
    }
    std::vector<sat::Lit> lits;
    lits.reserve(path.size());
    for (const topo::AsId as : path) {
      const auto a = static_cast<std::size_t>(as);
      if (as_in_clause_[a] == clause_stamp_) continue;
      as_in_clause_[a] = clause_stamp_;
      lits.emplace_back(var_of_as_[a], /*negated=*/false);
    }
    tc.cnf.add_clause(std::move(lits));
    ++tc.num_positive_clauses;
    tc.positive_paths.push_back(path);
  }
  return tc;
}

std::vector<TomoCnf> StreamingCnfBuilder::emit_closed(std::int64_t end_limit) {
  // Chains in key order, each chain's windows ascending: the batch is
  // CnfKey-sorted.
  std::vector<TomoCnf> out;
  for (const std::size_t ci : chain_order_) {
    Chain& chain = chains_[ci];
    std::size_t closed = 0;
    while (closed < chain.open.size() &&
           window_end(chain.open[closed].window, chain.key.granularity) <= end_limit) {
      const Group& group = chain.open[closed++];
      if (!options_.require_positive || !group.positive_ids.empty()) {
        out.push_back(build_group(chain.key, group));
        ++emitted_;
      }
    }
    chain.open.erase(chain.open.begin(),
                     chain.open.begin() + static_cast<std::ptrdiff_t>(closed));
    open_groups_ -= closed;
  }
  return out;
}

std::vector<TomoCnf> StreamingCnfBuilder::advance_watermark(util::Day complete_before) {
  if (complete_before <= watermark_) return {};  // monotone: never lower it
  watermark_ = complete_before;
  return emit_closed(watermark_);
}

std::vector<TomoCnf> StreamingCnfBuilder::flush() {
  std::vector<TomoCnf> out = emit_closed(std::numeric_limits<std::int64_t>::max());
  watermark_ = std::numeric_limits<util::Day>::max();
  return out;
}

void StreamingCnfBuilder::save(util::ByteWriter& w) const {
  // pool_ is only populated in owned-pool mode; in borrowed mode it is
  // empty and this is one zero-length prefix.
  pool_.save(w);
  const auto save_ids = [](util::ByteWriter& w, const std::vector<PathPool::PathId>& ids) {
    util::save_vec(w, ids, save_path_id);
  };
  w.size(open_groups_);
  for (const std::size_t ci : chain_order_) {
    const Chain& chain = chains_[ci];
    for (const Group& group : chain.open) {
      save_cnf_key(w, CnfKey{chain.key.url_id, chain.key.anomaly, chain.key.granularity,
                             group.window});
      save_ids(w, group.positive_ids);
      save_ids(w, group.positive_seen.sorted());
      save_ids(w, group.negative_seen.sorted());
    }
  }
  w.i32(watermark_);
  w.i64(emitted_);
}

void StreamingCnfBuilder::load(util::ByteReader& r) {
  pool_.load(r);
  chains_.clear();
  chain_index_.clear();
  chain_order_.clear();
  open_groups_ = 0;
  const std::size_t n = r.size();
  for (std::size_t i = 0; i < n; ++i) {
    const CnfKey key = load_cnf_key(r);
    const auto gi = static_cast<std::size_t>(
        std::lower_bound(grans_.begin(), grans_.end(), key.granularity) - grans_.begin());
    if (gi == grans_.size() || grans_[gi] != key.granularity) {
      throw util::SerdeError("StreamingCnfBuilder::load: group of a granularity this builder "
                             "does not build");
    }
    Chain& chain = chains_[chain_base(key.url_id, key.anomaly) + gi];
    const std::size_t before = open_groups_;
    Group& group = group_of(chain, key.window);
    if (open_groups_ == before) {
      throw util::SerdeError("StreamingCnfBuilder::load: duplicate window group");
    }
    std::vector<PathPool::PathId> ids;
    util::load_vec(r, group.positive_ids, load_path_id);
    for (const PathPool::PathId id : group.positive_ids) {
      if (id < 0 || !group.positive_seen.insert(id)) {
        throw util::SerdeError("StreamingCnfBuilder::load: invalid positive path ids");
      }
    }
    util::load_vec(r, ids, load_path_id);
    if (ids.size() != group.positive_ids.size() ||
        !std::all_of(ids.begin(), ids.end(),
                     [&](PathPool::PathId id) { return group.positive_seen.contains(id); })) {
      throw util::SerdeError("StreamingCnfBuilder::load: positive ids and their set disagree");
    }
    util::load_vec(r, ids, load_path_id);
    for (const PathPool::PathId id : ids) {
      if (id < 0 || !group.negative_seen.insert(id)) {
        throw util::SerdeError("StreamingCnfBuilder::load: invalid negative path ids");
      }
    }
  }
  watermark_ = r.i32();
  emitted_ = r.i64();
}

std::vector<TomoCnf> build_cnfs(const PathPool& pool, const std::vector<PathClause>& clauses,
                                const CnfBuildOptions& options) {
  StreamingCnfBuilder builder(options, &pool);
  for (const PathClause& clause : clauses) builder.add(pool, clause);
  return builder.flush();
}

std::vector<std::pair<std::size_t, std::size_t>> chain_runs(const std::vector<TomoCnf>& cnfs) {
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  std::size_t begin = 0;
  for (std::size_t i = 1; i <= cnfs.size(); ++i) {
    if (i == cnfs.size() || chain_of(cnfs[i].key) != chain_of(cnfs[begin].key)) {
      runs.emplace_back(begin, i);
      begin = i;
    }
  }
  return runs;
}

bool ChurnStripFilter::keep(const PathPool& pool, const PathClause& clause) {
  if (pool.get(clause.path_id).empty()) return false;
  // First path observed per (vantage, URL); clause order is the
  // platform's emission order, i.e. chronological within a URL.
  return first_path_.emplace(util::pack_ids(clause.vantage, clause.url_id), clause.path_id) ==
         clause.path_id;
}

void ChurnStripFilter::save(util::ByteWriter& w) const {
  std::vector<std::pair<std::pair<topo::AsId, std::int32_t>, PathPool::PathId>> entries;
  entries.reserve(first_path_.size());
  first_path_.for_each([&](std::uint64_t key, std::int32_t path_id) {
    entries.push_back({{static_cast<topo::AsId>(key >> 32), static_cast<std::int32_t>(key)},
                       path_id});
  });
  std::sort(entries.begin(), entries.end());
  w.size(entries.size());
  for (const auto& [key, path_id] : entries) {
    w.i32(key.first);
    w.i32(key.second);
    save_path_id(w, path_id);
  }
}

void ChurnStripFilter::load(util::ByteReader& r) {
  first_path_.clear();
  const std::size_t n = r.size();
  for (std::size_t i = 0; i < n; ++i) {
    const topo::AsId vantage = r.i32();
    const std::int32_t url_id = r.i32();
    const PathPool::PathId path_id = load_path_id(r);
    if (path_id < 0) throw util::SerdeError("ChurnStripFilter::load: negative path id");
    first_path_.emplace(util::pack_ids(vantage, url_id), path_id);
    if (first_path_.size() != i + 1) {
      throw util::SerdeError("ChurnStripFilter::load: duplicate (vantage, URL) entry");
    }
  }
}

std::vector<PathClause> strip_path_churn(const PathPool& pool,
                                         const std::vector<PathClause>& clauses) {
  ChurnStripFilter filter;
  std::vector<PathClause> out;
  for (const PathClause& clause : clauses) {
    if (filter.keep(pool, clause)) out.push_back(clause);
  }
  return out;
}

}  // namespace ct::tomo
