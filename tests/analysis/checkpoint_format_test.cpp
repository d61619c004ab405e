// Pins the checkpoint payload bytes of the grouping and churn state.
//
// PathPool, StreamingCnfBuilder, ChurnStripFilter and ChurnFold keep
// their state in flat hash layouts whose iteration order is arbitrary,
// but their checkpoint encoding must not be: containers are written in
// key order and sets ascending, exactly as the node-based layouts they
// replaced wrote them, so kCheckpointVersion stays 2 and checkpoints
// written before the change still restore.  The digests below were
// taken from the node-based implementation on the same fixed stream;
// a change to any of them is a checkpoint format change.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/churn_stats.h"
#include "tomo/cnf_builder.h"
#include "topo/generator.h"
#include "util/rng.h"
#include "util/serde.h"

namespace ct::analysis {
namespace {

/// FNV-1a 64 over the bytes, as 16 hex digits.
std::string digest(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, h >>= 4) out[static_cast<std::size_t>(i)] = kHex[h & 0xf];
  return out;
}

template <typename T>
std::string bytes_of(const T& value) {
  util::ByteWriter w;
  value.save(w);
  return w.take();
}

/// Restores `bytes` into `fresh` and returns its re-saved bytes.
template <typename T>
std::string resaved(const std::string& bytes, T fresh) {
  util::ByteReader r(bytes);
  fresh.load(r);
  r.expect_end();
  return bytes_of(fresh);
}

struct PinnedState {
  tomo::PathPool pool;
  std::vector<tomo::PathClause> clauses;
};

/// A fixed stream: 40 paths (some empty, some repeating an AS), 900
/// clauses over 60 days, 6 URLs, 3 vantages, every anomaly.
PinnedState pinned_stream() {
  util::Rng rng(0x5eed2017);
  PinnedState s;
  std::vector<tomo::PathPool::PathId> ids;
  for (int i = 0; i < 40; ++i) {
    std::vector<topo::AsId> path(static_cast<std::size_t>(rng.uniform_int(0, 6)));
    for (topo::AsId& as : path) as = static_cast<topo::AsId>(rng.uniform_int(0, 24));
    ids.push_back(s.pool.intern(path));
  }
  const std::vector<topo::AsId> vantages{3, 10, 12};
  for (int c = 0; c < 900; ++c) {
    tomo::PathClause clause;
    clause.path_id = ids[rng.index(ids.size())];
    clause.url_id = static_cast<std::int32_t>(rng.uniform_int(0, 5));
    clause.vantage = vantages[rng.index(vantages.size())];
    clause.day = c / 15;
    clause.anomaly = censor::kAllAnomalies[rng.index(censor::kAllAnomalies.size())];
    clause.observed = rng.bernoulli(0.3);
    s.clauses.push_back(clause);
  }
  return s;
}

TEST(CheckpointFormat, GroupingAndChurnStateBytesArePinned) {
  const PinnedState s = pinned_stream();

  // Main grouper (borrowed pool, all granularities) sealed through day
  // 30; a Figure-4 style grouper (owned pool, day/week/month, keeping
  // all-clean groups) behind the churn-strip filter, sealed through 21.
  tomo::StreamingCnfBuilder main_grouper(tomo::CnfBuildOptions{}, &s.pool);
  tomo::CnfBuildOptions ablation_options;
  ablation_options.require_positive = false;
  ablation_options.granularities = {util::Granularity::kDay, util::Granularity::kWeek,
                                    util::Granularity::kMonth};
  tomo::StreamingCnfBuilder ablation_grouper(ablation_options);
  tomo::ChurnStripFilter filter;
  for (const tomo::PathClause& clause : s.clauses) {
    if (clause.day == 21 && ablation_grouper.watermark() < 21) {
      ablation_grouper.advance_watermark(21);
    }
    if (clause.day == 30 && main_grouper.watermark() < 30) main_grouper.advance_watermark(30);
    main_grouper.add(s.pool, clause);
    if (filter.keep(s.pool, clause)) ablation_grouper.add(s.pool, clause);
  }

  // Churn fold: 12 pairs x 60 days x 3 epochs of small-alphabet
  // signatures, sealed through day 30.
  topo::TopologyConfig cfg;
  cfg.num_ases = 30;
  cfg.num_tier1 = 2;
  cfg.num_transit = 6;
  cfg.num_countries = 4;
  const topo::AsGraph graph = topo::generate_topology(cfg, 2);
  const std::vector<topo::AsId> fold_vantages{3, 10, 12};
  const std::vector<topo::AsId> fold_dests{20, 21, 25, 28};
  ChurnFold fold(graph, fold_vantages, fold_dests, 60, 3);
  util::Rng rng(0xc4012);
  for (util::Day day = 0; day < 60; ++day) {
    if (day == 30) fold.retire_before(30);
    for (std::size_t pair = 0; pair < fold.num_pairs(); ++pair) {
      for (int epoch = 0; epoch < 3; ++epoch) {
        fold.observe(pair, day, static_cast<std::uint64_t>(rng.uniform_int(1, 6)));
      }
    }
  }

  const std::string pool_bytes = bytes_of(s.pool);
  const std::string main_bytes = bytes_of(main_grouper);
  const std::string ablation_bytes = bytes_of(ablation_grouper);
  const std::string filter_bytes = bytes_of(filter);
  const std::string fold_bytes = bytes_of(fold);

  EXPECT_EQ(pool_bytes.size(), 720u);
  EXPECT_EQ(digest(pool_bytes), "ecdce51d04667f95");
  EXPECT_EQ(main_bytes.size(), 30692u);
  EXPECT_EQ(digest(main_bytes), "612f7c148c3a75d3");
  EXPECT_EQ(ablation_bytes.size(), 3024u);
  EXPECT_EQ(digest(ablation_bytes), "3ace0d83f7d8df3f");
  EXPECT_EQ(filter_bytes.size(), 224u);
  EXPECT_EQ(digest(filter_bytes), "af39a5f71b39333d");
  EXPECT_EQ(fold_bytes.size(), 20160u);
  EXPECT_EQ(digest(fold_bytes), "38226e1d8b1e6113");

  // Each restores and re-saves to the same bytes.
  EXPECT_EQ(resaved(pool_bytes, tomo::PathPool{}), pool_bytes);
  EXPECT_EQ(resaved(main_bytes, tomo::StreamingCnfBuilder(tomo::CnfBuildOptions{}, &s.pool)),
            main_bytes);
  EXPECT_EQ(resaved(ablation_bytes, tomo::StreamingCnfBuilder(ablation_options)),
            ablation_bytes);
  EXPECT_EQ(resaved(filter_bytes, tomo::ChurnStripFilter{}), filter_bytes);
  EXPECT_EQ(resaved(fold_bytes, ChurnFold(graph, fold_vantages, fold_dests, 60, 3)), fold_bytes);
}

}  // namespace
}  // namespace ct::analysis
