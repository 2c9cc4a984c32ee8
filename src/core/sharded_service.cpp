#include "core/sharded_service.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "util/parallel.hpp"

namespace unisamp {

namespace {

// The repo-wide checksum convention (bench_harness/scenario.hpp): fold
// seed 0x9E3779B97F4A7C15, acc' = mix(acc ^ v).  Re-stated here so core
// does not depend on the bench_harness layer.
constexpr std::uint64_t kFoldSeed = 0x9E3779B97F4A7C15ULL;

constexpr std::uint64_t fold(std::uint64_t acc, std::uint64_t v) noexcept {
  return SplitMix64::mix(acc ^ v);
}

// Query-RNG derivation tag, far outside any realistic shard index so the
// per-shard seeds derive_seed(seed, s) can never collide with it.
constexpr std::uint64_t kQuerySeedTag = 0x5AD5'0000'0000'0001ULL;

// Ids a shard worker stages per on_receive_stream call.
constexpr std::size_t kIngestBatch = 1024;

}  // namespace

ShardedSamplingService::ShardedSamplingService(ShardedServiceConfig config)
    : config_(std::move(config)),
      query_rng_(derive_seed(config_.base.seed, kQuerySeedTag)) {
  if (config_.shard_count == 0)
    throw std::invalid_argument("shard_count must be positive");
  if (config_.producer_threads == 0)
    throw std::invalid_argument("producer_threads must be positive");
  shards_.reserve(config_.shard_count);
  for (std::size_t s = 0; s < config_.shard_count; ++s) {
    ServiceConfig shard_cfg = config_.base;
    shard_cfg.seed = derive_seed(config_.base.seed, s);
    shards_.push_back(std::make_unique<SamplingService>(std::move(shard_cfg)));
  }
  staging_.resize(config_.shard_count);
}

void ShardedSamplingService::ingest(std::span<const NodeId> ids) {
  if (ids.empty()) return;
  const std::size_t shard_count = shards_.size();
  const std::size_t workers =
      std::min<std::size_t>(config_.producer_threads, shard_count);
  if (workers <= 1) {
    ingest_serial(ids);
    return;
  }
  // Owner filtering: the worker for shard s scans the whole input and keeps
  // the ids s owns, so the shard sees its sub-stream in arrival order — the
  // canonical serialization by construction.  A throwing shard stops where
  // it threw; the others are fed in full and the first error in shard order
  // surfaces once every worker is done, as in ingest_serial.
  std::vector<std::exception_ptr> errors(shard_count);
  parallel_for_index(shard_count, workers, [&](std::size_t s) {
    try {
      staging_[s].resize(kIngestBatch);
      const std::span<NodeId> batch(staging_[s]);
      // Branch-free filter: every id is written, only owned ones are kept.
      std::size_t kept = 0;
      for (const NodeId id : ids) {
        batch[kept] = id;
        kept += shard_of(id, shard_count) == s;
        if (kept == kIngestBatch) {
          shards_[s]->on_receive_stream(batch);
          kept = 0;
        }
      }
      if (kept > 0) shards_[s]->on_receive_stream(batch.first(kept));
    } catch (...) {
      errors[s] = std::current_exception();
    }
  });
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
}

void ShardedSamplingService::ingest_serial(std::span<const NodeId> ids) {
  if (ids.empty()) return;
  if (shards_.size() == 1) {
    shards_[0]->on_receive_stream(ids);
    return;
  }
  for (auto& bucket : staging_) bucket.clear();
  for (const NodeId id : ids)
    staging_[shard_of(id, shards_.size())].push_back(id);
  std::exception_ptr first_error;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (staging_[s].empty()) continue;
    try {
      shards_[s]->on_receive_stream(staging_[s]);
    } catch (...) {
      // A throwing shard must not starve later shards of their
      // sub-streams; the first failure (in shard order) surfaces once
      // every shard has been fed.
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

std::optional<NodeId> ShardedSamplingService::sample() {
  // Shard-order reduction of the memory sizes, then one query-RNG draw
  // picks a shard with probability |Gamma_s| / sum |Gamma| — a uniform id
  // over the union once each shard's own draw is uniform over its Gamma.
  std::vector<std::uint64_t> sizes(shards_.size());
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    sizes[s] = shards_[s]->sampler().memory().size();
    total += sizes[s];
  }
  if (total == 0) return std::nullopt;
  std::uint64_t pick = query_rng_.next_below(total);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (pick < sizes[s]) return shards_[s]->sample();
    pick -= sizes[s];
  }
  return std::nullopt;  // unreachable: pick < total = sum(sizes)
}

std::uint64_t ShardedSamplingService::processed() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->processed();
  return total;
}

FrequencyHistogram ShardedSamplingService::merged_histogram() const {
  FrequencyHistogram merged;
  for (const auto& shard : shards_)
    for (const auto& [id, count] : shard->output_histogram().raw())
      merged.add(id, count);
  return merged;
}

Stream ShardedSamplingService::merged_output_stream() const {
  Stream merged;
  for (const auto& shard : shards_) {
    const Stream& out = shard->output_stream();
    merged.insert(merged.end(), out.begin(), out.end());
  }
  return merged;
}

std::uint64_t ShardedSamplingService::state_checksum() const {
  std::uint64_t acc = kFoldSeed;
  std::vector<std::pair<NodeId, std::uint64_t>> entries;
  for (const auto& shard : shards_) {
    acc = fold(acc, shard->processed());
    entries.assign(shard->output_histogram().raw().begin(),
                   shard->output_histogram().raw().end());
    std::sort(entries.begin(), entries.end());
    for (const auto& [id, count] : entries) {
      acc = fold(acc, id);
      acc = fold(acc, count);
    }
    for (const NodeId id : shard->output_stream()) acc = fold(acc, id);
  }
  return acc;
}

}  // namespace unisamp
