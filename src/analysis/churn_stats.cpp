#include "analysis/churn_stats.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/rng.h"
#include "util/serde.h"

namespace ct::analysis {

std::uint64_t path_signature(const std::vector<topo::AsId>& path) {
  if (path.empty()) return 0;
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (const topo::AsId as : path) {
    h = util::mix64(h, static_cast<std::uint64_t>(as) + 1);
  }
  return h == 0 ? 1 : h;  // reserve 0 for "no path"
}

namespace {

/// Index of each AS in `ases`, by AS id (-1 where absent; negative ids
/// are never tracked).
std::vector<std::int32_t> slots_by_as(const std::vector<topo::AsId>& ases) {
  std::vector<std::int32_t> slots;
  for (std::size_t i = 0; i < ases.size(); ++i) {
    if (ases[i] < 0) continue;
    const auto as = static_cast<std::size_t>(ases[i]);
    if (as >= slots.size()) slots.resize(as + 1, -1);
    slots[as] = static_cast<std::int32_t>(i);
  }
  return slots;
}

std::int32_t slot_of(const std::vector<std::int32_t>& slots, topo::AsId as) {
  return as >= 0 && static_cast<std::size_t>(as) < slots.size()
             ? slots[static_cast<std::size_t>(as)]
             : -1;
}

}  // namespace

bool ChurnFold::SigSet::insert(std::uint64_t sig) {
  if (size_ == 0) {
    first_ = sig;
  } else {
    if (first_ == sig || std::find(rest_.begin(), rest_.end(), sig) != rest_.end()) {
      return false;
    }
    rest_.push_back(sig);
  }
  ++size_;
  return true;
}

void ChurnFold::SigSet::insert_all(const SigSet& other) {
  if (other.size_ == 0) return;
  insert(other.first_);
  for (const std::uint64_t sig : other.rest_) insert(sig);
}

std::vector<std::uint64_t> ChurnFold::SigSet::sorted() const {
  std::vector<std::uint64_t> out;
  if (size_ == 0) return out;
  out.reserve(size_);
  out.push_back(first_);
  out.insert(out.end(), rest_.begin(), rest_.end());
  std::sort(out.begin(), out.end());
  return out;
}

ChurnFold::ChurnFold(const topo::AsGraph& graph, std::vector<topo::AsId> vantages,
                     std::vector<topo::AsId> dests, util::Day num_days,
                     std::int32_t epochs_per_day)
    : graph_(&graph),
      vantages_(std::move(vantages)),
      dests_(std::move(dests)),
      num_days_(num_days),
      epochs_per_day_(epochs_per_day),
      vantage_slot_(slots_by_as(vantages_)),
      dest_slot_(slots_by_as(dests_)) {
  run_distinct_.resize(num_pairs());
  last_.resize(num_pairs());
}

std::size_t ChurnFold::pair_of(topo::AsId vantage, topo::AsId dest) const {
  const std::int32_t vi = slot_of(vantage_slot_, vantage);
  const std::int32_t di = slot_of(dest_slot_, dest);
  if (vi < 0 || di < 0) return kNoPair;
  return pair_index(static_cast<std::size_t>(vi), static_cast<std::size_t>(di));
}

ChurnFold::OpenWindow& ChurnFold::open_window(std::size_t gi, std::int32_t window) {
  std::vector<OpenWindow>& open = grans_[gi].open;
  // Observations arrive day-ascending, so the window is almost always
  // the newest open one; anything else is a sorted insert.
  if (!open.empty() && open.back().window == window) return open.back();
  auto it = open.end();
  if (!open.empty() && open.back().window > window) {
    it = std::lower_bound(open.begin(), open.end(), window,
                          [](const OpenWindow& w, std::int32_t v) { return w.window < v; });
    if (it->window == window) return *it;
  }
  OpenWindow fresh;
  fresh.window = window;
  fresh.entry_of_pair.assign(num_pairs(), -1);
  return *open.insert(it, std::move(fresh));
}

ChurnFold::SigSet& ChurnFold::sigs_of(OpenWindow& win, std::uint32_t pair) {
  std::int32_t& slot = win.entry_of_pair[pair];
  if (slot < 0) {
    slot = static_cast<std::int32_t>(win.entries.size());
    win.entries.push_back(Entry{pair, {}});
  }
  return win.entries[static_cast<std::size_t>(slot)].sigs;
}

void ChurnFold::observe(std::size_t pair, util::Day day, std::uint64_t signature) {
  if (day < retired_before_) {
    throw std::logic_error("ChurnFold::observe: day " + std::to_string(day) +
                           " arrived after watermark " + std::to_string(retired_before_) +
                           " (window already sealed)");
  }
  if (pair >= num_pairs()) {
    throw std::out_of_range("ChurnFold::observe: pair " + std::to_string(pair) +
                            " out of range");
  }
  LastObservation& last = last_[pair];
  if (last.day == day && last.signature == signature) return;
  last = LastObservation{signature, day};
  for (std::size_t gi = 0; gi < util::kAllGranularities.size(); ++gi) {
    const std::int32_t window = util::window_of(day, util::kAllGranularities[gi]);
    sigs_of(open_window(gi, window), static_cast<std::uint32_t>(pair)).insert(signature);
  }
  run_distinct_[pair].insert(signature);
}

void ChurnFold::retire_before(util::Day complete_before) {
  if (complete_before <= retired_before_) return;  // monotone
  retired_before_ = complete_before;
  for (std::size_t gi = 0; gi < util::kAllGranularities.size(); ++gi) {
    const util::Granularity g = util::kAllGranularities[gi];
    GranState& gran = grans_[gi];
    std::size_t sealed = 0;
    while (sealed < gran.open.size() &&
           util::window_start(gran.open[sealed].window, g) + util::window_length(g) <=
               complete_before) {
      for (const Entry& entry : gran.open[sealed].entries) {
        const auto distinct = static_cast<std::int64_t>(entry.sigs.size());
        gran.counts.add(distinct);
        ++gran.samples;
        gran.changed += distinct >= 2 ? 1 : 0;
      }
      ++sealed;
    }
    gran.open.erase(gran.open.begin(), gran.open.begin() + static_cast<std::ptrdiff_t>(sealed));
  }
}

void ChurnFold::union_open(const ChurnFold& other) {
  for (std::size_t gi = 0; gi < util::kAllGranularities.size(); ++gi) {
    for (const OpenWindow& theirs : other.grans_[gi].open) {
      OpenWindow& mine = open_window(gi, theirs.window);
      for (const Entry& entry : theirs.entries) {
        sigs_of(mine, entry.pair).insert_all(entry.sigs);
      }
    }
  }
  for (std::size_t p = 0; p < run_distinct_.size(); ++p) {
    run_distinct_[p].insert_all(other.run_distinct_[p]);
  }
}

void ChurnFold::merge(ChurnFold&& other) {
  if (!same_geometry(other)) {
    throw std::invalid_argument("ChurnFold::merge: geometry mismatch");
  }
  if (retired_before_ != 0 || other.retired_before_ != 0) {
    throw std::logic_error(
        "ChurnFold::merge: sealed folds cannot merge (a window sealed on one "
        "side may still be open on the other)");
  }
  union_open(other);
}

void ChurnFold::absorb_unsealed(ChurnFold&& other) {
  if (!same_geometry(other)) {
    throw std::invalid_argument("ChurnFold::absorb_unsealed: geometry mismatch");
  }
  if (other.retired_before_ != 0) {
    throw std::logic_error("ChurnFold::absorb_unsealed: the absorbed fold must be unsealed");
  }
  // Refuse before touching anything, so a refused absorb leaves this
  // fold as it was.
  for (std::size_t gi = 0; gi < util::kAllGranularities.size(); ++gi) {
    const util::Granularity g = util::kAllGranularities[gi];
    for (const OpenWindow& theirs : other.grans_[gi].open) {
      if (util::window_start(theirs.window, g) + util::window_length(g) <= retired_before_) {
        throw std::logic_error("ChurnFold::absorb_unsealed: observation in a window this "
                               "fold already sealed (" + util::window_label(theirs.window, g) +
                               " ends at or before watermark " +
                               std::to_string(retired_before_) + ")");
      }
    }
  }
  union_open(other);
}

ChurnStats ChurnFold::snapshot() const {
  ChurnStats stats;
  for (std::size_t gi = 0; gi < util::kAllGranularities.size(); ++gi) {
    const util::Granularity g = util::kAllGranularities[gi];
    const GranState& gran = grans_[gi];
    util::BucketedCounts counts = gran.counts;
    std::int64_t samples = gran.samples;
    std::int64_t changed = gran.changed;
    for (const OpenWindow& win : gran.open) {
      for (const Entry& entry : win.entries) {
        const auto distinct = static_cast<std::int64_t>(entry.sigs.size());
        counts.add(distinct);
        ++samples;
        changed += distinct >= 2 ? 1 : 0;
      }
    }
    stats.changed_fraction[g] =
        samples == 0 ? 0.0 : static_cast<double>(changed) / static_cast<double>(samples);
    stats.distinct_paths.emplace(g, std::move(counts));
  }

  // Churn by destination class over the full run (year window).
  std::map<topo::AsClass, std::pair<std::int64_t, std::int64_t>> by_class;  // (changed, total)
  for (std::size_t vi = 0; vi < vantages_.size(); ++vi) {
    for (std::size_t di = 0; di < dests_.size(); ++di) {
      const auto& distinct = run_distinct_[pair_index(vi, di)];
      if (distinct.empty()) continue;
      auto& [chg, tot] = by_class[graph_->as_info(dests_[di]).cls];
      ++tot;
      chg += distinct.size() >= 2 ? 1 : 0;
    }
  }
  for (const auto& [cls, counts] : by_class) {
    stats.changed_by_dest_class[cls] =
        counts.second == 0 ? 0.0
                           : static_cast<double>(counts.first) /
                                 static_cast<double>(counts.second);
  }
  return stats;
}

std::size_t ChurnFold::open_window_entries() const {
  std::size_t n = 0;
  for (const GranState& gran : grans_) {
    for (const OpenWindow& win : gran.open) n += win.entries.size();
  }
  return n;
}

void ChurnFold::save(util::ByteWriter& w) const {
  const auto save_as = [](util::ByteWriter& w, topo::AsId as) { w.i32(as); };
  const auto save_sigs = [](util::ByteWriter& w, const SigSet& sigs) {
    util::save_vec(w, sigs.sorted(), [](util::ByteWriter& w, std::uint64_t s) { w.u64(s); });
  };
  util::save_vec(w, vantages_, save_as);
  util::save_vec(w, dests_, save_as);
  w.i32(num_days_);
  w.i32(epochs_per_day_);
  for (const GranState& gran : grans_) {
    gran.counts.save(w);
    w.i64(gran.samples);
    w.i64(gran.changed);
    std::size_t entries = 0;
    for (const OpenWindow& win : gran.open) entries += win.entries.size();
    w.size(entries);
    for (const OpenWindow& win : gran.open) {
      for (std::size_t p = 0; p < win.entry_of_pair.size(); ++p) {
        if (win.entry_of_pair[p] < 0) continue;
        w.i32(win.window);
        w.u32(static_cast<std::uint32_t>(p));
        save_sigs(w, win.entries[static_cast<std::size_t>(win.entry_of_pair[p])].sigs);
      }
    }
  }
  util::save_vec(w, run_distinct_, save_sigs);
  w.i32(retired_before_);
}

void ChurnFold::load(util::ByteReader& r) {
  const auto load_as = [](util::ByteReader& r) { return topo::AsId{r.i32()}; };
  std::vector<topo::AsId> vantages;
  std::vector<topo::AsId> dests;
  util::load_vec(r, vantages, load_as);
  util::load_vec(r, dests, load_as);
  const util::Day num_days = r.i32();
  const std::int32_t epochs_per_day = r.i32();
  if (vantages != vantages_ || dests != dests_ || num_days != num_days_ ||
      epochs_per_day != epochs_per_day_) {
    throw util::SerdeError("ChurnFold::load: geometry mismatch with the restoring fold");
  }
  const auto load_sigs = [](util::ByteReader& r, SigSet& sigs) {
    const std::size_t n = r.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (!sigs.insert(r.u64())) throw util::SerdeError("ChurnFold::load: duplicate signature");
    }
  };
  for (std::size_t gi = 0; gi < grans_.size(); ++gi) {
    GranState& gran = grans_[gi];
    gran.counts.load(r);
    gran.samples = r.i64();
    gran.changed = r.i64();
    gran.open.clear();
    const std::size_t n = r.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::int32_t window = r.i32();
      const std::uint32_t pair = r.u32();
      if (pair >= num_pairs()) throw util::SerdeError("ChurnFold::load: pair out of range");
      SigSet& sigs = sigs_of(open_window(gi, window), pair);
      if (!sigs.empty()) throw util::SerdeError("ChurnFold::load: duplicate open entry");
      load_sigs(r, sigs);
      if (sigs.empty()) throw util::SerdeError("ChurnFold::load: empty open entry");
    }
  }
  const std::size_t pairs = r.size();
  if (pairs != num_pairs()) {
    throw util::SerdeError("ChurnFold::load: run_distinct size mismatch");
  }
  run_distinct_.assign(pairs, SigSet{});
  for (SigSet& sigs : run_distinct_) load_sigs(r, sigs);
  last_.assign(pairs, LastObservation{});
  retired_before_ = r.i32();
}

PathChurnTracker::PathChurnTracker(const topo::AsGraph& graph,
                                   std::vector<topo::AsId> vantages,
                                   std::vector<topo::AsId> dests, util::Day num_days,
                                   std::int32_t epochs_per_day)
    : fold_(graph, std::move(vantages), std::move(dests), num_days, epochs_per_day) {}

void PathChurnTracker::on_path(util::Day day, std::int32_t epoch, topo::AsId vantage,
                               topo::AsId dest, const std::vector<topo::AsId>& path) {
  const std::size_t pair = fold_.pair_of(vantage, dest);
  if (pair == ChurnFold::kNoPair) return;
  if (day < 0 || day >= fold_.num_days() || epoch < 0 || epoch >= fold_.epochs_per_day()) {
    return;
  }
  const std::uint64_t sig = path_signature(path);
  if (sig == 0) return;  // unreachable: never a distinct path
  fold_.observe(pair, day, sig);
}

void PathChurnTracker::merge(PathChurnTracker&& other) {
  if (!fold_.same_geometry(other.fold_)) {
    throw std::invalid_argument("PathChurnTracker::merge: geometry mismatch");
  }
  fold_.merge(std::move(other.fold_));
}

std::int64_t PathChurnTracker::distinct_paths_of_pair(topo::AsId vantage,
                                                      topo::AsId dest) const {
  const std::size_t pair = fold_.pair_of(vantage, dest);
  return pair == ChurnFold::kNoPair ? 0 : fold_.distinct_of_pair(pair);
}

}  // namespace ct::analysis
