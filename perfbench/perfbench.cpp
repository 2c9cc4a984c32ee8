// End-to-end benchmark program for the unisamp library.
//
// Runs one closed-loop workload: a single caller issues a step (one ingest
// call or one round), waits for it, and issues the next.  A run repeats
// fixed-size, seed-determined passes until --seconds have elapsed; every
// pass rebuilds the system under test (timed as set-up), drives it through
// the same inputs and must end in the same checksum.  Correctness checks
// and any per-layer mirror work run outside the step timings.
//
// With --trace 1 every other pass is traced: spans are recorded around the
// calls into each layer's public functions (nothing inside the library is
// instrumented), and the untraced passes in between give the tracing
// overhead.  The raw record (step times, set-up times, spans, counters,
// output histograms, fingerprint) is written as JSON to --out; run.py turns
// it into metrics.  See README.md.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "adversary/adaptive.hpp"
#include "adversary/attacks.hpp"
#include "bench_harness/json_writer.hpp"
#include "core/attack_detector.hpp"
#include "core/knowledge_free_sampler.hpp"
#include "core/sampling_service.hpp"
#include "core/sharded_service.hpp"
#include "sim/driver.hpp"
#include "sim/gossip.hpp"
#include "sim/topology.hpp"
#include "sketch/count_min.hpp"
#include "stream/generators.hpp"
#include "stream/histogram.hpp"
#include "stream/trace_io.hpp"
#include "stream/trace_replay.hpp"
#include "util/rng.hpp"

namespace {

using unisamp::NodeId;
using unisamp::Stream;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr std::uint64_t fold(std::uint64_t acc, std::uint64_t v) {
  return unisamp::SplitMix64::mix(acc ^ v);
}
constexpr std::uint64_t kFoldSeed = 0x9E3779B97F4A7C15ULL;

std::uint64_t fold_histogram(std::uint64_t acc,
                             const unisamp::FrequencyHistogram& hist) {
  std::vector<std::pair<NodeId, std::uint64_t>> entries(hist.raw().begin(),
                                                        hist.raw().end());
  std::sort(entries.begin(), entries.end());
  for (const auto& [id, count] : entries) acc = fold(fold(acc, id), count);
  return acc;
}

// --- Spans -----------------------------------------------------------------

/// In-memory span log.  A span is (layer name, start, end, parent); the
/// parent is the index of the enclosing span or -1 for a root.  Written out
/// once, after the run.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t parent;
    std::uint64_t start;
    std::uint64_t end;
  };

  std::int64_t open(const char* name, std::int64_t parent) {
    spans_.push_back(Span{name, parent, now_ns(), 0});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  void close(std::int64_t index) { spans_[index].end = now_ns(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Scoped span; a no-op when `log` is null (untraced pass).
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::int64_t parent = -1)
      : log_(log), index_(log ? log->open(name, parent) : -1) {}
  ~Scope() {
    if (log_) log_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int64_t index() const { return index_; }

 private:
  SpanLog* log_;
  std::int64_t index_;
};

// --- Run bookkeeping ---------------------------------------------------------

struct PassResult {
  std::uint64_t setup_ns = 0;
  std::uint64_t ids = 0;  // ids ingested (delivered, for the overlay)
  std::vector<std::uint64_t> step_ns;
  std::uint64_t checksum = 0;
  bool traced = false;
};

/// Ops and failures of a run.  An op is a step or a sample() query; a thrown
/// exception, an empty sample or a failed check is a failure.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> messages;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    if (messages.size() < 20) messages.push_back(what);
  }
};

/// Output-quality inputs: the output histogram over the correct ids (for
/// KL from uniform) and the adversary's share numerator / denominator.
struct Quality {
  std::vector<std::uint64_t> correct_counts;
  std::uint64_t malicious = 0;
  std::uint64_t total = 0;
};

/// Per-layer counts of one traced pass (every pass does the same work, so
/// the last traced pass stands for all of them).
using Counters = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  virtual PassResult run_pass(SpanLog* spans, Ops& ops) = 0;
  const Quality& quality() const { return quality_; }
  const Counters& counters() const { return counters_; }

 protected:
  Quality quality_;
  Counters counters_;
};

const unisamp::KnowledgeFreeSampler& kf_sampler(
    const unisamp::SamplingService& service) {
  return dynamic_cast<const unisamp::KnowledgeFreeSampler&>(service.sampler());
}

std::size_t gamma_turnover(std::vector<NodeId> before,
                           const std::vector<NodeId>& after) {
  std::sort(before.begin(), before.end());
  std::size_t fresh = 0;
  for (const NodeId id : after)
    if (!std::binary_search(before.begin(), before.end(), id)) ++fresh;
  return fresh;
}

/// Isolated per-layer ladder fed the same ids as the system under test:
/// a bare sketch, a bare sampler and (optionally) a bare service with the
/// same parameters, each timed by its own root span.  Their differences are
/// the sampler's and the service's self time per id.
class Ladder {
 public:
  Ladder(const unisamp::ServiceConfig& config, bool with_service)
      : sketch_(unisamp::CountMinParams::from_dimensions(
            config.sketch_width, config.sketch_depth, config.seed)),
        sampler_(config.memory_size,
                 unisamp::CountMinParams::from_dimensions(
                     config.sketch_width, config.sketch_depth, config.seed),
                 unisamp::derive_seed(config.seed, 0x5A)) {
    if (with_service) service_.emplace(config);
  }

  void feed(SpanLog* spans, std::span<const NodeId> ids) {
    {
      // The same blocked prehash path the sampler drives its sketch with.
      const Scope s(spans, "sketch");
      constexpr std::size_t kBlock = unisamp::CountMinSketch::kPrehashBlock;
      std::uint32_t pre[unisamp::CountMinSketch::kMaxDepth * kBlock];
      for (std::size_t i = 0; i < ids.size(); i += kBlock) {
        const std::size_t n = std::min(kBlock, ids.size() - i);
        sketch_.prehash_block(ids.data() + i, n, pre);
        for (std::size_t j = 0; j < n; ++j)
          sketch_.update_and_estimate_prehashed(pre, j);
      }
    }
    out_.clear();
    {
      const Scope s(spans, "sampler");
      sampler_.process_stream(ids, out_);
    }
    if (service_) {
      const Scope s(spans, "service");
      service_->on_receive_stream(ids);
    }
  }

  /// Answers `n` sample() queries, keeping the bare sampler's RNG in step
  /// with a service that was queried as often.
  void query(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) sampler_.sample();
  }

  void rekey(std::uint64_t seed) {
    sketch_.rekey(unisamp::CountMinParams::from_dimensions(
        sketch_.width(), sketch_.depth(), seed));
    sampler_.rekey(seed);
  }

  const unisamp::KnowledgeFreeSampler& sampler() const { return sampler_; }

 private:
  unisamp::CountMinSketch sketch_;
  unisamp::KnowledgeFreeSampler sampler_;
  std::optional<unisamp::SamplingService> service_;
  Stream out_;
};

/// The sketch's state at the end of a pass, and the counter bytes one id
/// touches: one 64-byte line per row (rows of an id land in different
/// columns, so on different lines).
void note_sketch(Counters& counters, std::uint64_t min_counter,
                 std::uint64_t total, std::size_t depth) {
  counters["sketch.min_counter"] = static_cast<double>(min_counter);
  counters["sketch.total_count"] = static_cast<double>(total);
  counters["sketch.bytes_per_id"] = static_cast<double>(depth * 64);
}

/// Quality inputs from an output histogram whose correct ids are [0, domain)
/// and whose other ids are the adversary's.
Quality histogram_quality(const unisamp::FrequencyHistogram& hist,
                          std::size_t domain) {
  Quality q;
  q.correct_counts.assign(domain, 0);
  for (const auto& [id, count] : hist.raw()) {
    if (id < domain)
      q.correct_counts[id] = count;
    else
      q.malicious += count;
  }
  q.total = hist.total();
  return q;
}

std::vector<std::span<const NodeId>> chunks_of(const Stream& stream,
                                               std::size_t size) {
  std::vector<std::span<const NodeId>> out;
  for (std::size_t i = 0; i < stream.size(); i += size)
    out.emplace_back(stream.data() + i, std::min(size, stream.size() - i));
  return out;
}

// --- ingest-sharded ----------------------------------------------------------

// Zipf(1.2) honest traffic over 10^5 ids plus a 10% targeted injection over
// 100 forged ids (so output pollution is defined), fed through the sharded
// front in 64K-id calls over S = 2 shards (10 ms each, so that a host
// preemption of a few ms does not dominate a step).  Sampler dimensions are the
// paper's: c = 100, k = 10, s = 17.
//
// The timed calls use one producer, so ingest() partitions on the calling
// thread (its ingest_serial path).  With two producers the pipeline runs 4
// threads, one per core of a 4-core host, and on a shared host its
// throughput drifted between 2 and 11 M ids/s within single runs as other
// tenants came and went (run-to-run spread 0.58 of the median, against
// 0.035 for a single-threaded workload).  The traced run times that
// 4-thread pipeline on the same calls instead, as sharded.ns_per_id.
class IngestSharded final : public Workload {
 public:
  static constexpr std::size_t kDomain = 100'000;
  static constexpr std::size_t kChunk = 65'536;
  // The last call of a pass also takes the measure point: 1 step in 50,
  // as on the overlay.
  static constexpr std::size_t kStepsPerPass = 50;
  static constexpr std::size_t kForged = 100;

  explicit IngestSharded(std::uint64_t seed) {
    const std::uint64_t m = kChunk * kStepsPerPass;
    const std::uint64_t injected = m / 10;
    const auto base = unisamp::counts_from_weights(
        unisamp::zipf_weights(kDomain, 1.2), m - injected);
    stream_ = unisamp::make_targeted_attack(base, kForged, injected / kForged,
                                            unisamp::derive_seed(seed, 1))
                  .stream;
    chunks_ = chunks_of(stream_, kChunk);
    config_.base.strategy = unisamp::Strategy::kKnowledgeFree;
    config_.base.memory_size = 100;
    config_.base.sketch_width = 10;
    config_.base.sketch_depth = 17;
    config_.base.seed = unisamp::derive_seed(seed, 2);
    config_.base.record_output = false;
    config_.shard_count = 2;
    config_.producer_threads = 1;
    // The canonical serialization every pass must reproduce.
    unisamp::ShardedSamplingService reference(config_);
    for (const auto chunk : chunks_) reference.ingest_serial(chunk);
    reference_checksum_ = reference.state_checksum();
  }

  PassResult run_pass(SpanLog* spans, Ops& ops) override {
    PassResult r;
    const std::uint64_t t0 = now_ns();
    unisamp::ShardedSamplingService service(config_);
    r.setup_ns = now_ns() - t0;
    std::optional<unisamp::ShardedSamplingService> pipeline;
    std::optional<Ladder> ladder;
    if (spans) {
      unisamp::ShardedServiceConfig threaded = config_;
      threaded.producer_threads = 2;
      pipeline.emplace(threaded);
      ladder.emplace(config_.base, /*with_service=*/true);
    }
    std::vector<std::vector<NodeId>> before(config_.shard_count);
    std::uint64_t turnover = 0;
    Quality measured;
    for (const auto chunk : chunks_) {
      if (spans)
        for (std::size_t s = 0; s < config_.shard_count; ++s)
          before[s] = service.shard(s).sampler().memory();
      const std::uint64_t start = now_ns();
      {
        const Scope step(spans, "step");
        {
          const Scope serial(spans, "serial", step.index());
          service.ingest(chunk);
        }
        if (chunk.data() == chunks_.back().data()) {
          const Scope measure(spans, "measure", step.index());
          measured = histogram_quality(service.merged_histogram(), kDomain);
        }
      }
      r.step_ns.push_back(now_ns() - start);
      ++ops.attempted;
      if (!spans) continue;
      for (std::size_t s = 0; s < config_.shard_count; ++s)
        turnover += gamma_turnover(std::move(before[s]),
                                   service.shard(s).sampler().memory());
      {
        const Scope s(spans, "pipeline");
        pipeline->ingest(chunk);
      }
      ladder->feed(spans, chunk);
    }
    r.ids = service.processed();
    r.checksum = service.state_checksum();
    ops.check(r.ids == stream_.size(), "ingest-sharded: processed count");
    ops.check(r.checksum == reference_checksum_,
              "ingest-sharded: state_checksum differs from ingest_serial");
    for (std::size_t s = 0; s < config_.shard_count; ++s)
      ops.check(service.shard(s).sampler().memory().size() <=
                    config_.base.memory_size,
                "ingest-sharded: |Gamma| > c");
    if (quality_.correct_counts.empty()) quality_ = measured;
    if (spans) {
      ops.check(pipeline->state_checksum() == r.checksum,
                "ingest-sharded: 4-thread pipeline diverged from serial");
      counters_["gamma.fresh"] = static_cast<double>(turnover);
      counters_["ladder.ids"] = static_cast<double>(r.ids);
      std::uint64_t min_counter = std::numeric_limits<std::uint64_t>::max();
      std::uint64_t total = 0, most = 0;
      for (std::size_t s = 0; s < config_.shard_count; ++s) {
        const auto& sketch = kf_sampler(service.shard(s)).sketch();
        min_counter = std::min(min_counter, sketch.min_counter());
        total += sketch.total_count();
        most = std::max(most, service.shard(s).processed());
      }
      note_sketch(counters_, min_counter, total, config_.base.sketch_depth);
      counters_["sharded.shard_skew"] = static_cast<double>(most) *
                                        config_.shard_count /
                                        static_cast<double>(r.ids);
    }
    return r;
  }

 private:
  Stream stream_;
  std::vector<std::span<const NodeId>> chunks_;
  unisamp::ShardedServiceConfig config_;
  std::uint64_t reference_checksum_ = 0;
};

// --- overlay-colluding -------------------------------------------------------

// 600-node random-regular(4) gossip overlay in event mode: bimodal link
// latency, inbox capacity 32, 24 ids per node per tick.  The first 10% of
// nodes collude (eclipse flood on one victim + Sybil identity churn); every
// correct node runs a knowledge-free service with c = 50, k = 10, s = 17.
// One step is one tick; every 50th step also takes a measure point.
class OverlayColluding final : public Workload {
 public:
  static constexpr std::size_t kNodes = 600;
  static constexpr std::size_t kByzantine = 60;
  static constexpr std::size_t kTicksPerPass = 800;
  static constexpr std::size_t kMeasureEvery = 50;
  static constexpr std::size_t kProbe = kNodes - 1;
  // The overlay's wiring is configuration, fixed across seeds; the seed
  // drives the traffic (gossip, adversary, latency and service coins).
  // Per-seed wirings would add the topology's own spread to the quality
  // metrics (measured: 9% vs 6% for output_kl across 12 seeds).
  static constexpr std::uint64_t kTopologySeed = 0x70B0;

  explicit OverlayColluding(std::uint64_t seed) {
    gossip_.fanout = 3;
    gossip_.seed = unisamp::derive_seed(seed, 3);
    gossip_.byzantine_count = kByzantine;
    gossip_.flood_factor = 8;
    gossip_.forged_id_count = 20;
    service_.strategy = unisamp::Strategy::kKnowledgeFree;
    service_.memory_size = 50;
    service_.sketch_width = 10;
    service_.sketch_depth = 17;
    service_.seed = unisamp::derive_seed(seed, 4);
    service_.record_output = false;
    colluding_.eclipse = unisamp::EclipseConfig{kByzantine, 8, 0.8};
    colluding_.churn.pool_size = 20;
    colluding_.churn.rotate_every = 10;
    colluding_.churn.flood_factor = 8;
    colluding_.churn.first_forged_id =
        static_cast<NodeId>(kNodes) + (NodeId{1} << 32) + (NodeId{1} << 20);
    unisamp::LinkLatencyModel latency;
    latency.kind = unisamp::LinkLatencyModel::Kind::kBimodal;
    latency.base = unisamp::kTicksPerRound / 4;
    latency.spread = unisamp::kTicksPerRound / 2;
    latency.far_fraction = 0.15;
    latency.far_extra = 2 * unisamp::kTicksPerRound;
    latency.seed = unisamp::derive_seed(seed, 5);
    timing_ = unisamp::TimingModel::event(latency, 32, 24);
  }

  PassResult run_pass(SpanLog* spans, Ops& ops) override {
    PassResult r;
    unisamp::GossipConfig gossip = gossip_;
    gossip.record_inputs = spans != nullptr;  // the probe replay needs them
    const std::uint64_t t0 = now_ns();
    unisamp::GossipNetwork net(
        unisamp::Topology::random_regular(kNodes, 4, kTopologySeed),
        gossip, service_);
    unisamp::ColludingAdversary adversary(net.forged_ids(), colluding_);
    net.set_adversary(&adversary);
    unisamp::SimDriver driver(net, timing_);
    r.setup_ns = now_ns() - t0;
    std::vector<std::size_t> probe_marks;  // probe input length per tick
    Quality measured;
    for (std::size_t t = 0; t < kTicksPerPass; ++t) {
      const std::uint64_t start = now_ns();
      {
        const Scope step(spans, "step");
        {
          const Scope tick(spans, "tick", step.index());
          driver.run_ticks(1);
        }
        if ((t + 1) % kMeasureEvery == 0) {
          const Scope measure(spans, "measure", step.index());
          measured = measure_point(net);
        }
      }
      r.step_ns.push_back(now_ns() - start);
      ++ops.attempted;
      const auto& st = driver.stats();
      ops.check(st.messages_sent ==
                    st.messages_delivered + st.messages_heard +
                        st.dropped_overflow + st.dropped_inactive +
                        driver.in_flight_messages(),
                "overlay-colluding: conservation law violated");
      if (spans) probe_marks.push_back(net.input_stream(kProbe).size());
    }
    r.ids = net.delivered();
    ops.check(r.ids == driver.stats().messages_delivered,
              "overlay-colluding: delivered count mismatch");
    const auto& st = driver.stats();
    std::uint64_t acc = kFoldSeed;
    for (const std::uint64_t v :
         {st.events_processed, st.messages_sent, st.messages_delivered,
          st.messages_heard, st.dropped_overflow, st.dropped_inactive,
          st.peak_queue_depth, st.peak_inbox_backlog})
      acc = fold(acc, v);
    for (std::size_t i = kByzantine; i < kNodes; ++i) {
      const auto& service = net.service(i);
      ops.check(service.sampler().memory().size() <= service_.memory_size,
                "overlay-colluding: |Gamma| > c");
      acc = fold(acc, service.processed());
      for (const NodeId id : service.sampler().memory()) acc = fold(acc, id);
      acc = fold_histogram(acc, service.output_histogram());
    }
    r.checksum = acc;
    if (quality_.correct_counts.empty()) quality_ = measured;
    if (spans) {
      // Replay the probe node's recorded input, tick by tick, through a
      // fresh isolated ladder (sketch, sampler, service) seeded like the
      // probe's own service.
      unisamp::ServiceConfig probe_config = service_;
      probe_config.seed = unisamp::derive_seed(gossip_.seed, 0x1000 + kProbe);
      Ladder ladder(probe_config, /*with_service=*/true);
      const Stream& input = net.input_stream(kProbe);
      std::size_t from = 0;
      std::uint64_t turnover = 0;
      for (const std::size_t to : probe_marks) {
        if (to == from) continue;
        auto before = ladder.sampler().memory();
        ladder.feed(spans, std::span<const NodeId>(input.data() + from,
                                                   to - from));
        turnover +=
            gamma_turnover(std::move(before), ladder.sampler().memory());
        from = to;
      }
      counters_["gamma.fresh"] = static_cast<double>(turnover);
      counters_["ladder.ids"] = static_cast<double>(from);
      const auto& sketch = kf_sampler(net.service(kProbe)).sketch();
      note_sketch(counters_, sketch.min_counter(), sketch.total_count(),
                  sketch.depth());
      counters_["sim.events_processed"] =
          static_cast<double>(st.events_processed);
      counters_["sim.messages_sent"] = static_cast<double>(st.messages_sent);
      counters_["sim.messages_delivered"] =
          static_cast<double>(st.messages_delivered);
      counters_["sim.dropped_overflow"] =
          static_cast<double>(st.dropped_overflow);
      counters_["sim.in_flight"] =
          static_cast<double>(driver.in_flight_messages());
      counters_["sim.peak_queue_depth"] =
          static_cast<double>(st.peak_queue_depth);
      counters_["sim.peak_inbox_backlog"] =
          static_cast<double>(st.peak_inbox_backlog);
      counters_["adversary.malicious_ids"] =
          static_cast<double>(adversary.malicious_ids().size());
    }
    return r;
  }

 private:
  static bool is_correct(NodeId id) {
    return id >= kByzantine && id < kNodes;
  }

  // The measure point: output histograms of every correct node restricted
  // to the correct ids, and the adversary's share of the correct nodes'
  // sampling memories.
  static Quality measure_point(const unisamp::GossipNetwork& net) {
    Quality q;
    q.correct_counts.assign(kNodes - kByzantine, 0);
    for (std::size_t i = kByzantine; i < kNodes; ++i) {
      const auto& service = net.service(i);
      for (const auto& [id, count] : service.output_histogram().raw())
        if (is_correct(id)) q.correct_counts[id - kByzantine] += count;
      for (const NodeId id : service.sampler().memory()) {
        ++q.total;
        if (!is_correct(id)) ++q.malicious;
      }
    }
    return q;
  }

  unisamp::GossipConfig gossip_;
  unisamp::ServiceConfig service_;
  unisamp::ColludingConfig colluding_;
  unisamp::TimingModel timing_;
};

// --- replay-defended ---------------------------------------------------------

// One node under the targeted attack of Sec. V-A, replayed from a USTRC001
// trace file: half honest Zipf(0.8) over 10^5 ids, half injections over 200
// forged ids.  Each 32K-id round is decoded, run through the attack
// detector, ingested by a service with a large sketch (s = 4 rows, past L1d,
// so the prefetch path runs), queried 64 times, and followed by a rekey
// when the round raised an alarm and the cooldown has passed.
class ReplayDefended final : public Workload {
 public:
  static constexpr std::size_t kDomain = 100'000;
  static constexpr std::size_t kChunk = 32'768;
  static constexpr std::size_t kRoundsPerPass = 128;
  static constexpr std::size_t kForged = 200;
  static constexpr std::size_t kQueries = 64;
  static constexpr std::size_t kRekeyCooldown = 16;
  // 2048 x 4 counters, 128 KiB with the line-padded layout: past L1d,
  // inside one core's L2, above the prefetch threshold.  Wider sketches
  // leave counters at 0 for long stretches against 10^5 distinct ids
  // (from 8192 on, for good): min sigma = 0 freezes Gamma on its first c
  // ids, so the output quality would measure only that start-up transient.
  static constexpr std::size_t kSketchWidth = 2048;

  ReplayDefended(std::uint64_t seed, const std::string& dir) : seed_(seed) {
    const std::uint64_t m = kChunk * kRoundsPerPass;
    const auto base = unisamp::counts_from_weights(
        unisamp::zipf_weights(kDomain, 0.8), m / 2);
    const Stream stream =
        unisamp::make_targeted_attack(base, kForged, m / 2 / kForged,
                                      unisamp::derive_seed(seed, 1))
            .stream;
    ids_ = stream.size();
    path_ = dir + "/replay-defended-" + std::to_string(seed) + ".ustrc";
    unisamp::save_stream_binary(stream, path_);
    std::ifstream file(path_, std::ios::binary | std::ios::ate);
    trace_bytes_ = static_cast<double>(file.tellg());
    service_.strategy = unisamp::Strategy::kKnowledgeFree;
    service_.memory_size = 100;
    service_.sketch_width = kSketchWidth;
    service_.sketch_depth = 4;
    service_.seed = unisamp::derive_seed(seed, 2);
    service_.record_output = false;
    detector_.seed = unisamp::derive_seed(seed, 3);
  }
  ~ReplayDefended() override { std::remove(path_.c_str()); }

  PassResult run_pass(SpanLog* spans, Ops& ops) override {
    PassResult r;
    unisamp::TraceReplayConfig source_config;
    source_config.kind = unisamp::TraceReplayConfig::Kind::kTraceFile;
    source_config.ids_per_round = kChunk;
    source_config.id_offset = 0;
    source_config.path = path_;
    source_config.io = unisamp::TraceReplayConfig::IoMode::kBuffered;
    source_config.buffer_ids = kChunk;
    const std::uint64_t t0 = now_ns();
    unisamp::TraceReplaySource source(source_config);
    unisamp::SamplingService service(service_);
    unisamp::AttackDetector detector(detector_);
    r.setup_ns = now_ns() - t0;
    std::optional<Ladder> ladder;
    if (spans) ladder.emplace(service_, /*with_service=*/false);
    Stream batch;
    batch.reserve(kChunk);
    std::uint64_t windows = 0, alarms = 0, rekeys = 0, turnover = 0;
    std::uint64_t queries = kFoldSeed, empty = 0;
    std::size_t rekey_allowed_from = 0;  // the cooldown's end
    for (std::size_t round = 0; round < kRoundsPerPass; ++round) {
      std::vector<NodeId> before;
      if (spans) before = service.sampler().memory();
      bool rekey_now = false;
      std::uint64_t rekey_seed = 0;
      const std::uint64_t start = now_ns();
      {
        const Scope step(spans, "step");
        {
          const Scope s(spans, "replay", step.index());
          batch.clear();
          source.next_round(batch);
        }
        bool alarmed = false;
        {
          const Scope s(spans, "detector", step.index());
          for (const NodeId id : batch)
            if (const auto window = detector.observe(id)) {
              ++windows;
              if (window->signal != unisamp::AttackSignal::kNone) {
                ++alarms;
                alarmed = true;
              }
            }
        }
        {
          const Scope s(spans, "service", step.index());
          service.on_receive_stream(batch);
        }
        {
          const Scope s(spans, "sample", step.index());
          for (std::size_t q = 0; q < kQueries; ++q) {
            if (const auto id = service.sample())
              queries = fold(queries, *id);
            else
              ++empty;
          }
        }
        if (alarmed && round >= rekey_allowed_from) {
          const Scope s(spans, "rekey", step.index());
          rekey_seed = unisamp::derive_seed(seed_, 0xDEF0 + rekeys);
          service.rekey_sampler(rekey_seed);
          rekey_now = true;
          rekey_allowed_from = round + kRekeyCooldown;
          ++rekeys;
        }
      }
      r.step_ns.push_back(now_ns() - start);
      ops.attempted += 1 + kQueries;
      ops.check(batch.size() == std::min(kChunk, ids_ - round * kChunk),
                "replay-defended: short round from the trace");
      ops.check(service.sampler().memory().size() <= service_.memory_size,
                "replay-defended: |Gamma| > c");
      if (!spans) continue;
      turnover += gamma_turnover(std::move(before), service.sampler().memory());
      ladder->feed(spans, batch);
      ladder->query(kQueries);
      if (rekey_now) ladder->rekey(rekey_seed);
    }
    ops.failed += empty;
    r.ids = service.processed();
    ops.check(r.ids == ids_, "replay-defended: processed count");
    std::uint64_t acc = fold(kFoldSeed, r.ids);
    acc = fold(fold(fold(acc, windows), alarms), rekeys);
    acc = fold(acc, queries);
    for (const NodeId id : service.sampler().memory()) acc = fold(acc, id);
    r.checksum = fold_histogram(acc, service.output_histogram());
    if (quality_.correct_counts.empty())
      quality_ = histogram_quality(service.output_histogram(), kDomain);
    if (spans) {
      ops.check(ladder->sampler().memory() == service.sampler().memory(),
                "replay-defended: traced sampler mirror diverged");
      counters_["gamma.fresh"] = static_cast<double>(turnover);
      counters_["ladder.ids"] = static_cast<double>(r.ids);
      counters_["detector.windows"] = static_cast<double>(windows);
      counters_["detector.alarms"] = static_cast<double>(alarms);
      counters_["detector.rekeys"] = static_cast<double>(rekeys);
      counters_["service.queries"] =
          static_cast<double>(kRoundsPerPass * kQueries);
      const auto& sketch = kf_sampler(service).sketch();
      note_sketch(counters_, sketch.min_counter(), sketch.total_count(),
                  sketch.depth());
      counters_["stream.trace_bytes_per_id"] =
          trace_bytes_ / static_cast<double>(ids_);
    }
    return r;
  }

 private:
  std::uint64_t seed_;
  std::string path_;
  std::size_t ids_ = 0;
  double trace_bytes_ = 0.0;
  unisamp::ServiceConfig service_;
  unisamp::DetectorConfig detector_;
};

// --- Fingerprint and process stats -------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  return "unknown";
}

std::uint64_t peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  return 0;
}

// --- Main --------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string dir = ".";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") o.workload = value;
    else if (key == "--seed") o.seed = std::stoull(value);
    else if (key == "--seconds") o.seconds = std::stod(value);
    else if (key == "--trace") o.trace = value == "1";
    else if (key == "--out") o.out = value;
    else if (key == "--dir") o.dir = value;
    else throw std::invalid_argument("unknown option " + key);
  }
  if (o.out.empty() || o.seconds <= 0.0)
    throw std::invalid_argument("--out and a positive --seconds are required");
  return o;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "ingest-sharded")
    return std::make_unique<IngestSharded>(o.seed);
  if (o.workload == "overlay-colluding")
    return std::make_unique<OverlayColluding>(o.seed);
  if (o.workload == "replay-defended")
    return std::make_unique<ReplayDefended>(o.seed, o.dir);
  throw std::invalid_argument("unknown workload " + o.workload);
}

void write_u64_array(unisamp::bench_harness::JsonWriter& w, const char* key,
                     const std::vector<std::uint64_t>& values) {
  w.key(key);
  w.begin_array();
  for (const std::uint64_t v : values) w.value(v);
  w.end_array();
}

int run(const Options& o) {
  const std::uint64_t gen_start = now_ns();
  std::unique_ptr<Workload> workload = make_workload(o);
  const std::uint64_t gen_ns = now_ns() - gen_start;

  // At least 1000 steps (so p99 has 10 samples beyond it) and 3 passes
  // (set-up is reported as a median), but never past --seconds + 60 s, so
  // a run on a slow host still ends in bounded time.
  constexpr std::size_t kMinSteps = 1000, kMinPasses = 3;
  const double cap_s = o.seconds + 60.0;
  SpanLog spans;
  Ops ops;
  std::vector<PassResult> passes;
  std::size_t steps = 0;
  const std::uint64_t start = now_ns();
  for (;;) {
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    if (elapsed >= cap_s) break;
    if (elapsed >= o.seconds && steps >= kMinSteps &&
        passes.size() >= kMinPasses)
      break;
    const bool traced = o.trace && passes.size() % 2 == 0;
    try {
      passes.push_back(workload->run_pass(traced ? &spans : nullptr, ops));
      passes.back().traced = traced;
    } catch (const std::exception& e) {
      ops.check(false, std::string("exception: ") + e.what());
      break;
    }
    steps += passes.back().step_ns.size();
    ops.check(passes.back().checksum == passes.front().checksum,
              "output checksum differs between passes");
  }

  unisamp::bench_harness::JsonWriter w;
  w.begin_object();
  w.member("workload", o.workload);
  w.member("seed", o.seed);
  w.member("traced", o.trace);
  w.member("generate_ns", gen_ns);
  w.key("fingerprint");
  w.begin_object();
  w.member("nproc",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.member("sketch_kernel",
           std::string(unisamp::CountMinSketch(
                           unisamp::CountMinParams::from_dimensions(10, 17, 1))
                           .kernel_name()));
  w.member("compiler", PERFBENCH_COMPILER);
  w.member("build_type", PERFBENCH_BUILD_TYPE);
  w.member("cpu_model", cpu_model());
  w.end_object();
  w.member("attempted", ops.attempted);
  w.member("failed", ops.failed);
  w.key("failures");
  w.begin_array();
  for (const auto& m : ops.messages) w.value(m);
  w.end_array();
  w.member("peak_rss_kb", peak_rss_kb());
  w.key("passes");
  w.begin_array();
  for (const PassResult& p : passes) {
    w.begin_object();
    w.member("traced", p.traced);
    w.member("setup_ns", p.setup_ns);
    w.member("ids", p.ids);
    w.member("checksum", std::to_string(p.checksum));
    write_u64_array(w, "step_ns", p.step_ns);
    w.end_object();
  }
  w.end_array();
  const Quality& q = workload->quality();
  w.key("quality");
  w.begin_object();
  write_u64_array(w, "correct_counts", q.correct_counts);
  w.member("malicious", q.malicious);
  w.member("total", q.total);
  w.end_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, value] : workload->counters()) w.member(name, value);
  w.end_object();
  w.key("spans");
  w.begin_array();
  for (const auto& s : spans.spans()) {
    w.begin_array();
    w.value(s.name);
    w.value(static_cast<std::int64_t>(s.parent));
    w.value(s.start);
    w.value(s.end);
    w.end_array();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(o.out);
  out << w.str() << '\n';
  if (!out) throw std::runtime_error("cannot write " + o.out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "unisamp_perfbench: %s\n", e.what());
    return 2;
  }
}
