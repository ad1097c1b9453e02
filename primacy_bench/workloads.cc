#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "core/primacy_codec.h"
#include "kernels/kernels.h"
#include "loadgen.h"
#include "service/service.h"
#include "store/checkpoint_store.h"
#include "transport/client.h"
#include "transport/server.h"
#include "util/checksum.h"
#include "util/thread_pool.h"

namespace primacy::bench {
namespace {

constexpr double kMB = 1e6;  // decimal, as ThroughputMBps
constexpr std::size_t kChunkBytes = 3 * 1024 * 1024;
constexpr std::size_t kVariableElements = 2 * 1024 * 1024;  // 16 MiB each
constexpr std::uint64_t kRangeReadElements = 1024;           // 8 KiB

double Seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Micros(std::uint64_t ns) { return static_cast<double>(ns) * 1e-3; }
std::uint64_t SecondsToNs(double s) {
  return static_cast<std::uint64_t>(s * 1e9);
}

bool SameBytes(ByteSpan a, ByteSpan b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

void Put(MetricValues& out, const std::string& name, double value,
         std::size_t samples) {
  out[name] = {value, samples};
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Bytes completed per fixed slice of the planned window, for a rate
/// reported as the median over slices.
class RateBuckets {
 public:
  RateBuckets(std::uint64_t start_ns, double window_s)
      : start_ns_(start_ns),
        slices_(std::max<std::size_t>(
            1, static_cast<std::size_t>(window_s + 0.5))),
        slice_s_(window_s / static_cast<double>(slices_)),
        bytes_(slices_, 0.0) {}

  void Add(std::uint64_t done_ns, double bytes) {
    if (done_ns < start_ns_) return;
    const auto slice =
        static_cast<std::size_t>(Seconds(done_ns - start_ns_) / slice_s_);
    if (slice >= slices_) return;
    bytes_[slice] += bytes;
  }

  void Merge(const RateBuckets& other) {
    for (std::size_t i = 0; i < slices_; ++i) bytes_[i] += other.bytes_[i];
  }

  double MedianMBps() const {
    Samples rates;
    for (const double v : bytes_) rates.Add(v / kMB / slice_s_);
    return rates.Median();
  }
  std::size_t slices() const { return slices_; }

 private:
  std::uint64_t start_ns_;
  std::size_t slices_;
  double slice_s_;
  std::vector<double> bytes_;
};

/// Registry deltas and wall time over the measured window of a traced pass,
/// plus the lane root span that marks it.
class MeasuredInterval {
 public:
  explicit MeasuredInterval(Tracer* tracer) : tracer_(tracer) {}

  void Begin(Tracer::Lane* lane) {
    if (tracer_ == nullptr) return;
    lane_ = lane;
    root_ = lane_ != nullptr ? lane_->Begin("loadgen.window", 0) : 0;
    start_ = RegistrySnapshot::Capture();
    start_ns_ = NowNs();
  }

  void End() {
    if (tracer_ == nullptr) return;
    wall_ns_ = NowNs() - start_ns_;
    if (lane_ != nullptr) lane_->End(root_);
    delta_ = RegistrySnapshot::Capture().DeltaSince(start_);
  }

  const RegistrySnapshot& delta() const { return delta_; }
  double wall_s() const { return Seconds(wall_ns_); }

 private:
  Tracer* tracer_;
  Tracer::Lane* lane_ = nullptr;
  std::uint32_t root_ = 0;
  RegistrySnapshot start_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t wall_ns_ = 0;
  RegistrySnapshot delta_;
};

/// Per-layer values every workload derives the same way from the registry
/// deltas of its measured window: pipeline stages, pool, caches, service
/// batches and the transport server.
void AddRegistryLayers(const RegistrySnapshot& d, double wall_s,
                       MetricValues& out) {
  const auto stages = [&](const std::string& pipeline,
                          const std::vector<const char*>& names,
                          double kib) {
    double cpu_s = 0.0;
    std::size_t chunks = 0;
    for (const char* stage : names) {
      const std::string label = std::string("stage=\"") + stage + "\"";
      const double s =
          d.Sum("primacy_" + pipeline + "_stage_seconds_sum", label);
      const auto n = static_cast<std::size_t>(
          d.Sum("primacy_" + pipeline + "_stage_seconds_count", label));
      cpu_s += s;
      chunks = std::max(chunks, n);
      Put(out, "core." + pipeline + "." + stage + "_ns_per_kib",
          Ratio(s * 1e9, kib), n);
    }
    Put(out, "core." + pipeline + ".cpu_over_wall", Ratio(cpu_s, wall_s),
        chunks);
  };
  stages("encode", {"split", "frequency", "id_map", "solver", "isobar",
                    "serialize"},
         d.Sum("primacy_encode_input_bytes_total") / 1024.0);
  // The decoder publishes checksum time only to the _ns_total counters, not
  // to this histogram, and laps no serialize stage, so neither is listed.
  stages("decode", {"frequency", "id_map", "solver", "isobar", "merge"},
         d.Sum("primacy_decode_output_bytes_total") / 1024.0);

  const std::string shared = "pool=\"shared\"";
  const double waits = d.Sum("primacy_pool_task_wait_us_count", shared);
  const double runs = d.Sum("primacy_pool_task_run_us_count", shared);
  const double tasks = d.Sum("primacy_pool_tasks_total", shared);
  const double workers = static_cast<double>(SharedThreadPool().num_threads());
  Put(out, "util.pool.task_wait_us_mean",
      Ratio(d.Sum("primacy_pool_task_wait_us_sum", shared), waits),
      static_cast<std::size_t>(waits));
  Put(out, "util.pool.task_run_us_mean",
      Ratio(d.Sum("primacy_pool_task_run_us_sum", shared), runs),
      static_cast<std::size_t>(runs));
  Put(out, "util.pool.busy_fraction",
      Ratio(d.Sum("primacy_pool_busy_ns_total", shared),
            wall_s * 1e9 * workers),
      static_cast<std::size_t>(runs));
  Put(out, "util.pool.tasks_per_s", Ratio(tasks, wall_s),
      static_cast<std::size_t>(tasks));

  const double hits = d.Sum("primacy_cache_hits_total");
  const double lookups = hits + d.Sum("primacy_cache_misses_total");
  const double evictions = d.Sum("primacy_cache_evictions_total");
  Put(out, "cache.hit_ratio", Ratio(hits, lookups),
      static_cast<std::size_t>(lookups));
  Put(out, "cache.evictions_per_s", Ratio(evictions, wall_s),
      static_cast<std::size_t>(evictions));

  const double batch_n = d.Sum("primacy_service_batch_latency_seconds_count");
  Put(out, "service.batch_latency_us_mean",
      Ratio(d.Sum("primacy_service_batch_latency_seconds_sum") * 1e6, batch_n),
      static_cast<std::size_t>(batch_n));
  const double server_n = d.Sum("primacy_transport_request_seconds_count");
  Put(out, "transport.server_request_us_mean",
      Ratio(d.Sum("primacy_transport_request_seconds_sum") * 1e6, server_n),
      static_cast<std::size_t>(server_n));
}

/// Throughput of each dispatched kernel over one 3 MB chunk of the
/// workload's own doubles (big-endian rows, as the pipeline feeds them),
/// median of repeated calls. Outputs are checked: merge must invert split
/// and unmap must invert map. Returns the number of failed checks.
std::uint64_t AddKernelLayers(std::span<const double> values,
                              MetricValues& out) {
  constexpr int kReps = 15;
  const std::size_t n = std::min(values.size(), kChunkBytes / 8);
  Bytes rows(n * 8);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t be =
        __builtin_bswap64(std::bit_cast<std::uint64_t>(values[i]));
    std::memcpy(rows.data() + i * 8, &be, 8);
  }
  Bytes high(n * 2), low(n * 6), merged(n * 8), mapped(n * 2), unmapped(n * 2);
  std::vector<std::uint32_t> counts(65536), ids(65536), sequences;
  std::vector<std::uint64_t> hist(256);
  const kernels::KernelTable& k = kernels::Active();
  std::uint64_t failures = 0;

  const auto time_kernel = [&](const char* name, double bytes,
                               const auto& prepare, const auto& call) {
    Samples ns;
    for (int r = 0; r < kReps; ++r) {
      prepare();
      const std::uint64_t t0 = NowNs();
      call();
      ns.Add(static_cast<double>(NowNs() - t0));
    }
    Put(out, std::string("kernels.") + name + "_gbps",
        Ratio(bytes, ns.Median()), kReps);
  };
  const auto nothing = [] {};
  time_kernel("split_w8_h2", static_cast<double>(n * 8), nothing,
              [&] { k.split_w8_h2(rows.data(), n, high.data(), low.data()); });
  time_kernel("merge_w8_h2", static_cast<double>(n * 8), nothing, [&] {
    k.merge_w8_h2(high.data(), low.data(), n, merged.data());
  });
  if (!SameBytes(merged, rows)) ++failures;
  time_kernel(
      "count_pairs", static_cast<double>(n * 2),
      [&] { std::fill(counts.begin(), counts.end(), 0u); },
      [&] { k.count_pairs(high.data(), n, counts.data()); });

  // Frequency-ranked ID table, as the encoder builds it.
  std::vector<std::uint32_t> order;
  for (std::uint32_t s = 0; s < 65536; ++s) {
    if (counts[s] != 0) order.push_back(s);
  }
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a,
                                                   std::uint32_t b) {
    return counts[a] > counts[b];
  });
  std::fill(ids.begin(), ids.end(), kernels::kUnmapped16);
  for (std::uint32_t rank = 0; rank < order.size(); ++rank) {
    ids[order[rank]] = rank;
  }
  sequences = order;
  bool mapped_ok = true;
  bool unmapped_ok = true;
  time_kernel("map_ids16", static_cast<double>(n * 2), nothing, [&] {
    mapped_ok = k.map_ids16(high.data(), n, ids.data(), mapped.data());
  });
  time_kernel("unmap_ids16", static_cast<double>(n * 2), nothing, [&] {
    unmapped_ok =
        k.unmap_ids16(mapped.data(), n, sequences.data(),
                      static_cast<std::uint32_t>(sequences.size()),
                      unmapped.data());
  });
  if (!mapped_ok || !unmapped_ok || !SameBytes(unmapped, high)) ++failures;
  time_kernel(
      "histogram_stride", static_cast<double>(n * 6),
      [&] { std::fill(hist.begin(), hist.end(), 0u); },
      [&] {
        for (std::size_t c = 0; c < 6; ++c) {
          k.histogram_stride(low.data() + c, n, 6, hist.data());
        }
      });
  return failures;
}

/// Untimed single-threaded compressions of the workload's own inputs, for
/// the two per-stream ratios the registry does not carry.
void AddCoreProbe(const std::vector<ByteSpan>& inputs, Tracer* tracer,
                  MetricValues& out) {
  Tracer::Lane& lane = tracer->NewLane("probe");
  PrimacyOptions options;
  options.threads = 1;
  const PrimacyCompressor compressor(options);
  double fraction_sum = 0.0;
  std::size_t chunks = 0;
  std::size_t index_bytes = 0;
  std::size_t output_bytes = 0;
  for (const ByteSpan input : inputs) {
    PrimacyStats stats;
    {
      ScopedSpan span(&lane, "core.compress");
      compressor.CompressBytes(input, &stats);
    }
    fraction_sum += stats.mean_compressible_fraction *
                    static_cast<double>(stats.chunks);
    chunks += stats.chunks;
    index_bytes += stats.index_bytes;
    output_bytes += stats.output_bytes;
  }
  Put(out, "core.isobar.compressible_fraction",
      Ratio(fraction_sum, static_cast<double>(chunks)), chunks);
  Put(out, "core.index_bytes_fraction",
      Ratio(static_cast<double>(index_bytes),
            static_cast<double>(output_bytes)),
      inputs.size());
}

void AddEndToEnd(MetricValues& out, const Samples& setup_s, double mbps,
                 std::size_t mbps_n, const Samples& latency_us, double ratio,
                 std::size_t ratio_n, RssSampler& rss) {
  rss.Join();
  Put(out, "setup_s", setup_s.Median(), setup_s.size());
  Put(out, "throughput_mbps", mbps, mbps_n);
  Put(out, "latency_us_p10", latency_us.Quantile(0.10), latency_us.size());
  Put(out, "latency_us_p50", latency_us.Quantile(0.50), latency_us.size());
  Put(out, "compression_ratio", ratio, ratio_n);
  Put(out, "mem_peak_mib", rss.MedianGrowthMiB(), rss.slices());
}

/// Closed-loop single-caller rate: MB of `bytes_per_op` per second of time
/// spent in the operations, which unlike a count over the window is not
/// quantized by the window edge when operations are long.
double BusyMBps(const Samples& latency_us, std::size_t bytes_per_op) {
  return Ratio(static_cast<double>(latency_us.size()) *
                   static_cast<double>(bytes_per_op) / kMB,
               latency_us.Sum() * 1e-6);
}

std::vector<std::vector<double>> SeededVariables(std::uint64_t seed) {
  std::vector<std::vector<double>> vars(kDatasets.size());
  std::vector<std::thread> generators;
  for (std::size_t v = 0; v < kDatasets.size(); ++v) {
    generators.emplace_back([&, v] {
      vars[v] = SeededDataset(kDatasets[v], seed, kVariableElements);
    });
  }
  for (std::thread& generator : generators) generator.join();
  return vars;
}

std::vector<ByteSpan> FirstChunks(
    const std::vector<std::vector<double>>& vars) {
  std::vector<ByteSpan> chunks;
  for (const auto& v : vars) {
    chunks.push_back(AsBytes(v).first(std::min(v.size() * 8, kChunkBytes)));
  }
  return chunks;
}

std::uint64_t VerifyRestore(const std::vector<Bytes>& restored,
                            const std::vector<std::vector<double>>& vars) {
  std::uint64_t bad = restored.size() == vars.size() ? 0 : 1;
  for (std::size_t v = 0; v < std::min(restored.size(), vars.size()); ++v) {
    if (!SameBytes(restored[v], AsBytes(vars[v]))) ++bad;
  }
  return bad;
}

// ---------------------------------------------------------------- ckpt_write

class CkptWrite final : public Workload {
 public:
  void Prepare(std::uint64_t seed) override {
    vars_ = SeededVariables(seed);
    user_bytes_ = 0;
    for (const auto& v : vars_) user_bytes_ += v.size() * 8;
  }

  PassResult Run(const PassConfig& config) override {
    PassResult result;
    RssSampler rss;
    rss.Reset();
    Tracer::Lane* lane =
        config.tracer ? &config.tracer->NewLane("ckpt_write") : nullptr;
    PrimacyOptions options;
    options.threads = 0;

    // Set-up: writer construction through the first variable's Add; the
    // one-variable checkpoint is then finished and read back untimed.
    Samples setup_s;
    for (std::size_t r = 0; r < config.setup_repeats; ++r) {
      const std::uint64_t t0 = NowNs();
      CheckpointWriter writer(options);
      writer.Add(kDatasets[0], vars_[0]);
      setup_s.Add(Seconds(NowNs() - t0));
      const Bytes file = writer.Finish();
      ++result.attempted;
      if (!SameBytes(AsBytes(CheckpointReader(file).ReadDoubles(kDatasets[0])),
                     AsBytes(vars_[0]))) {
        ++result.failed;
      }
    }

    Samples latency_us, add_ms, finish_ms, verify_us;
    std::uint64_t reference_hash = 0;
    std::size_t file_bytes = 0;
    std::uint64_t iteration = 0;
    const auto checkpoint = [&](bool measured) {
      Tracer::Lane* span_lane = measured ? lane : nullptr;
      ScopedSpan op(span_lane, "loadgen.checkpoint", iteration);
      const std::uint64_t t0 = NowNs();
      CheckpointWriter writer(options);
      for (std::size_t v = 0; v < vars_.size(); ++v) {
        const std::uint64_t a0 = NowNs();
        ScopedSpan span(span_lane, "store.add", iteration);
        writer.Add(kDatasets[v], vars_[v]);
        if (measured) add_ms.Add(static_cast<double>(NowNs() - a0) * 1e-6);
      }
      const std::uint64_t f0 = NowNs();
      Bytes file;
      {
        ScopedSpan span(span_lane, "store.finish", iteration);
        file = writer.Finish();
      }
      const std::uint64_t t1 = NowNs();
      if (measured) {
        finish_ms.Add(static_cast<double>(t1 - f0) * 1e-6);
        latency_us.Add(Micros(t1 - t0));
      }
      ++result.attempted;
      const std::uint64_t v0 = NowNs();
      if (iteration == 0) {
        // The first checkpoint is decoded and compared; later ones must
        // hash identically (the writer is deterministic).
        if (VerifyRestore(CheckpointReader(file).ReadAllRaw(), vars_) != 0) {
          ++result.failed;
        }
        reference_hash = Xxh64(file);
        file_bytes = file.size();
      } else if (Xxh64(file) != reference_hash) {
        ++result.failed;
      }
      if (measured) verify_us.Add(Micros(NowNs() - v0));
      ++iteration;
    };

    const std::uint64_t warm_end = NowNs() + SecondsToNs(config.warmup_s);
    do {
      checkpoint(false);
    } while (NowNs() < warm_end);
    MeasuredInterval interval(config.tracer);
    interval.Begin(lane);
    const std::uint64_t start = NowNs();
    rss.Start(start, config.window_s);
    const std::uint64_t end = start + SecondsToNs(config.window_s);
    while (NowNs() < end) checkpoint(true);
    interval.End();

    AddEndToEnd(result.values, setup_s, BusyMBps(latency_us, user_bytes_),
                latency_us.size(), latency_us,
                Ratio(static_cast<double>(user_bytes_),
                      static_cast<double>(file_bytes)),
                latency_us.size(), rss);
    if (config.tracer != nullptr) {
      MetricValues& out = result.values;
      AddRegistryLayers(interval.delta(), interval.wall_s(), out);
      result.failed += AddKernelLayers(vars_[0], out);
      AddCoreProbe(FirstChunks(vars_), config.tracer, out);
      Put(out, "store.add_ms_mean", add_ms.Mean(), add_ms.size());
      Put(out, "store.finish_ms_mean", finish_ms.Mean(), finish_ms.size());
      Put(out, "loadgen.verify_us_mean", verify_us.Mean(), verify_us.size());
      Put(out, "loadgen.outstanding_mean",
          Ratio(latency_us.Sum() * 1e-6, interval.wall_s()), latency_us.size());
    }
    return result;
  }

 private:
  std::vector<std::vector<double>> vars_;
  std::size_t user_bytes_ = 0;
};

// -------------------------------------------------------------- ckpt_restore

class CkptRestore final : public Workload {
 public:
  void Prepare(std::uint64_t seed) override {
    seed_ = seed;
    vars_ = SeededVariables(seed);
    PrimacyOptions options;
    options.threads = 0;
    CheckpointWriter writer(options);
    user_bytes_ = 0;
    for (std::size_t v = 0; v < vars_.size(); ++v) {
      writer.Add(kDatasets[v], vars_[v]);
      user_bytes_ += vars_[v].size() * 8;
    }
    file_ = writer.Finish();
  }

  PassResult Run(const PassConfig& config) override {
    PassResult result;
    RssSampler rss;
    rss.Reset();
    Tracer::Lane* lane =
        config.tracer ? &config.tracer->NewLane("ckpt_restore") : nullptr;
    Rng rng = StreamRng(seed_, 2);
    PrimacyOptions options;
    options.threads = 0;

    Samples latency_us, chunks_per_read, verify_us;
    std::uint64_t request = 0;
    // A partial restart: the same 1024-element region of every variable.
    // Region reads visit the full 3 MB chunks in turn, at a seeded offset
    // inside each, so every read decodes the same amount. The short last
    // chunk decodes about 3x faster; with it, the low quantiles would
    // measure that chunk alone.
    constexpr std::uint64_t kChunkElements = kChunkBytes / 8;
    constexpr std::uint64_t kFullChunks = kVariableElements / kChunkElements;
    std::uint64_t region = 0;
    const auto region_read = [&](const CheckpointReader& reader,
                                 Tracer::Lane* span_lane, bool measured) {
      const std::uint64_t first =
          (region++ % kFullChunks) * kChunkElements +
          rng.NextBelow(kChunkElements - kRangeReadElements + 1);
      std::vector<std::vector<double>> got(vars_.size());
      std::vector<PrimacyDecodeStats> stats(vars_.size());
      const std::uint64_t t0 = NowNs();
      for (std::size_t v = 0; v < vars_.size(); ++v) {
        ScopedSpan span(span_lane, "store.read_range", request);
        got[v] = reader.ReadDoublesRange(kDatasets[v], first,
                                         kRangeReadElements, &stats[v]);
      }
      const std::uint64_t t1 = NowNs();
      ++result.attempted;
      ++request;
      for (std::size_t v = 0; v < vars_.size(); ++v) {
        const ByteSpan expected =
            AsBytes(vars_[v]).subspan(first * 8, kRangeReadElements * 8);
        if (!SameBytes(AsBytes(got[v]), expected)) ++result.failed;
        if (measured) {
          chunks_per_read.Add(static_cast<double>(stats[v].chunks_decoded));
        }
      }
      if (measured) {
        latency_us.Add(Micros(t1 - t0));
        verify_us.Add(Micros(NowNs() - t1));
      }
    };

    Samples full_us;
    const auto full_restore = [&](const CheckpointReader& reader,
                                  Tracer::Lane* span_lane, bool measured) {
      const std::uint64_t t0 = NowNs();
      std::vector<Bytes> restored;
      {
        ScopedSpan span(span_lane, "store.read_all", request);
        restored = reader.ReadAllRaw();
      }
      const std::uint64_t t1 = NowNs();
      if (measured) full_us.Add(Micros(t1 - t0));
      ++result.attempted;
      ++request;
      result.failed += VerifyRestore(restored, vars_);
      if (measured) verify_us.Add(Micros(NowNs() - t1));
    };

    // Set-up: reader construction (footer, name index, decompressors)
    // through the first verified region read, the partial-restart path. A
    // first full restore would add page faults on 64 MiB of fresh output,
    // whose cost swings from call to call with the allocator's state.
    Samples setup_s, open_ms;
    Tracer::Lane* setup_lane =
        config.tracer ? &config.tracer->NewLane("setup") : nullptr;
    const auto set_up = [&] {
      const std::uint64_t t0 = NowNs();
      std::unique_ptr<CheckpointReader> fresh;
      {
        ScopedSpan span(setup_lane, "store.open");
        fresh = std::make_unique<CheckpointReader>(file_, options);
      }
      open_ms.Add(static_cast<double>(NowNs() - t0) * 1e-6);
      region_read(*fresh, nullptr, false);
      setup_s.Add(Seconds(NowNs() - t0));
      return fresh;
    };
    const std::unique_ptr<CheckpointReader> reader = set_up();

    // Warm-up and window alternate half-second blocks of region reads and
    // of full restores, and the remaining set-ups run one after each region
    // block. On the reference host a single thread slows about 1.45x for
    // seconds at a time; spread over the whole run, such an episode reaches
    // a share of every kind's samples instead of all of one kind's. Every
    // 1 s memory slice holds one block of each kind. Blocks do not mix the
    // kinds: a region read just after a full restore often faults in pages
    // the restore's buffers gave back and takes about 1.5x as long, which
    // here touches only the first read of a block.
    const auto run_blocks = [&](double seconds, bool measured) {
      Tracer::Lane* span_lane = measured ? lane : nullptr;
      const std::uint64_t start = NowNs();
      if (measured) rss.Start(start, seconds);
      const auto blocks = static_cast<std::uint64_t>(
          std::max(2.0, 2.0 * std::round(seconds)));
      for (std::uint64_t b = 0; b < blocks; ++b) {
        const std::uint64_t end =
            start + SecondsToNs(seconds * static_cast<double>(b + 1) /
                                static_cast<double>(blocks));
        if (b % 2 == 0) {
          do {
            region_read(*reader, span_lane, measured);
          } while (NowNs() < end);
          if (setup_s.size() < config.setup_repeats) set_up();
        } else {
          do {
            full_restore(*reader, span_lane, measured);
          } while (NowNs() < end);
        }
      }
    };
    run_blocks(config.warmup_s, false);
    MeasuredInterval interval(config.tracer);
    interval.Begin(lane);
    run_blocks(config.window_s, true);
    interval.End();
    while (setup_s.size() < config.setup_repeats) set_up();

    AddEndToEnd(result.values, setup_s, BusyMBps(full_us, user_bytes_),
                full_us.size(), latency_us,
                Ratio(static_cast<double>(user_bytes_),
                      static_cast<double>(file_.size())),
                1, rss);
    if (config.tracer != nullptr) {
      MetricValues& out = result.values;
      AddRegistryLayers(interval.delta(), interval.wall_s(), out);
      result.failed += AddKernelLayers(vars_[0], out);
      AddCoreProbe(FirstChunks(vars_), config.tracer, out);
      Put(out, "core.decode.chunks_per_range_read", chunks_per_read.Mean(),
          chunks_per_read.size());
      Put(out, "store.reader_open_ms_mean", open_ms.Mean(), open_ms.size());
      Put(out, "store.read_all_ms_mean", full_us.Mean() * 1e-3, full_us.size());
      Put(out, "loadgen.verify_us_mean", verify_us.Mean(), verify_us.size());
      Put(out, "loadgen.outstanding_mean",
          Ratio((latency_us.Sum() + full_us.Sum()) * 1e-6, interval.wall_s()),
          latency_us.size() + full_us.size());
    }
    return result;
  }

 private:
  std::uint64_t seed_ = 0;
  std::vector<std::vector<double>> vars_;
  std::size_t user_bytes_ = 0;
  Bytes file_;
};

// ------------------------------------------------ service workloads (shared)

service::ServiceOptions BenchServiceOptions() {
  service::ServiceOptions options;
  options.cache_capacity_bytes = 64ull << 20;
  return options;
}

std::unique_ptr<service::CompressionService> StartService(
    const std::vector<TenantObjects>& tenants) {
  auto svc =
      std::make_unique<service::CompressionService>(BenchServiceOptions());
  for (const TenantObjects& tenant : tenants) {
    service::TenantConfig config;
    config.name = tenant.tenant;
    config.cache_share = 0.25;
    config.memo_bytes = 8ull << 20;
    svc->AddTenant(config);
  }
  return svc;
}

/// One request of the 45/45/10 mix against one object.
struct Request {
  std::uint32_t tenant = 0;
  std::uint32_t object = 0;
  Op op = Op::kCompress;
  std::uint64_t first = 0;  // range requests only
};

/// The payload of set-up `r`: the r-th 4 KiB object of the first tenant, so
/// every seed's set-up does the same codec work.
const Object& SetupObject(const std::vector<TenantObjects>& tenants,
                          std::size_t r) {
  for (const Object& object : tenants[0].objects) {
    if (object.raw.size() == 4096 && r-- == 0) return object;
  }
  throw std::runtime_error("too few 4 KiB objects for set-up");
}

std::uint64_t RangeStart(const Object& object, Rng& rng) {
  return rng.NextBelow(object.raw.size() / 8 - kRangeElements + 1);
}

bool VerifyReply(const Object& object, const Request& request,
                 ByteSpan payload) {
  switch (request.op) {
    case Op::kCompress: return Xxh64(payload) == object.stream_hash;
    case Op::kDecompress: return Xxh64(payload) == object.raw_hash;
    case Op::kRange:
      return SameBytes(payload, ByteSpan(object.raw).subspan(
                                    request.first * 8, kRangeElements * 8));
  }
  return false;
}

/// User bytes a reply carries: the compressed input, or the restored data.
double UserBytes(const Object& object, const Request& request) {
  return request.op == Op::kRange ? static_cast<double>(kRangeElements * 8)
                                  : static_cast<double>(object.raw.size());
}

std::uint64_t TotalMemoHits(const service::CompressionService& svc,
                            const std::vector<TenantObjects>& tenants) {
  std::uint64_t hits = 0;
  for (const TenantObjects& tenant : tenants) {
    hits += svc.TenantStats(tenant.tenant).memo_hits;
  }
  return hits;
}

void AddServiceLayers(const service::ServiceStatsSnapshot& before,
                      const service::ServiceStatsSnapshot& after,
                      std::uint64_t memo_hits, std::size_t compress_requests,
                      MetricValues& out) {
  const std::uint64_t flushes = after.batch.Flushes() - before.batch.Flushes();
  const std::uint64_t batches = after.batch.batches - before.batch.batches;
  Put(out, "service.timeout_flush_fraction",
      Ratio(static_cast<double>(after.batch.timeout_flushes -
                                before.batch.timeout_flushes),
            static_cast<double>(flushes)),
      flushes);
  Put(out, "service.items_per_batch",
      Ratio(static_cast<double>(after.batch.items - before.batch.items),
            static_cast<double>(batches)),
      batches);
  Put(out, "service.memo_hit_ratio",
      Ratio(static_cast<double>(memo_hits),
            static_cast<double>(compress_requests)),
      compress_requests);
  Put(out, "service.rejected",
      static_cast<double>((after.rejected_quota - before.rejected_quota) +
                          (after.rejected_inflight - before.rejected_inflight)),
      after.admitted_requests - before.admitted_requests);
}

std::vector<ByteSpan> FirstObjects(const std::vector<TenantObjects>& tenants,
                                   std::size_t per_tenant) {
  std::vector<ByteSpan> raw;
  for (const TenantObjects& tenant : tenants) {
    const std::size_t n = std::min(per_tenant, tenant.objects.size());
    for (std::size_t i = 0; i < n; ++i) {
      raw.push_back(tenant.objects[i].raw);
    }
  }
  return raw;
}

/// Up to one 3 MB chunk of the workload's payload data, as doubles.
std::vector<double> PayloadChunk(const std::vector<TenantObjects>& tenants) {
  std::vector<double> values;
  for (const TenantObjects& tenant : tenants) {
    for (const Object& object : tenant.objects) {
      const std::vector<double> part = FromBytes<double>(object.raw);
      values.insert(values.end(), part.begin(), part.end());
      if (values.size() * 8 >= kChunkBytes) return values;
    }
  }
  return values;
}

// --------------------------------------------------------------- service_cold

class ServiceCold final : public Workload {
 public:
  static constexpr std::size_t kOutstanding = 32;

  void Prepare(std::uint64_t seed) override {
    seed_ = seed;
    // 80% 4 KiB, 20% 64 KiB payloads; 24 MiB per tenant is 1.5x the
    // tenant's 16 MiB cache partition and 3x its 8 MiB memo, and each
    // request kind cycles the pool in order, so neither LRU ever hits.
    tenants_ = BuildTenantObjects(seed, {512, 512, 512, 512, 8192}, 24u << 20);
  }

  PassResult Run(const PassConfig& config) override {
    PassResult result;
    RssSampler rss;
    rss.Reset();
    Tracer::Lane* lane =
        config.tracer ? &config.tracer->NewLane("submitter") : nullptr;
    Rng rng = StreamRng(seed_, 3);

    // Set-up: service + tenants through the first verified reply. A lone
    // request would wait out the 2 ms batch timer, whose wake-up jitter
    // would then dominate the reading; Flush() cuts its batch at once, as a
    // latency-sensitive caller would.
    Samples setup_s;
    std::unique_ptr<service::CompressionService> svc;
    for (std::size_t r = 0; r < config.setup_repeats; ++r) {
      svc.reset();
      const Object& object = SetupObject(tenants_, r);
      const std::uint64_t t0 = NowNs();
      svc = StartService(tenants_);
      std::future<service::ServiceResponse> future =
          svc->SubmitCompress(tenants_[0].tenant, object.raw);
      svc->Flush();
      const service::ServiceResponse reply = future.get();
      setup_s.Add(Seconds(NowNs() - t0));
      ++result.attempted;
      if (!reply.ok() || Xxh64(reply.payload) != object.stream_hash) {
        ++result.failed;
      }
    }

    struct Pending {
      Request request;
      std::future<service::ServiceResponse> future;
      std::uint64_t submit_ns = 0;
      std::uint64_t id = 0;
      bool measured = false;
    };
    std::deque<Pending> pending;
    std::vector<std::size_t> compress_next(tenants_.size(), 0);
    std::vector<std::size_t> decompress_next(tenants_.size(), 0);
    std::uint64_t next_id = 0;
    std::size_t compress_requests = 0;
    Samples latency_us, submit_us, verify_us;
    double ratio_raw = 0.0, ratio_stream = 0.0;
    std::size_t ratio_n = 0;

    const std::uint64_t window_start = NowNs() + SecondsToNs(config.warmup_s);
    const std::uint64_t window_end =
        window_start + SecondsToNs(config.window_s);
    RateBuckets buckets(window_start, config.window_s);

    const auto submit = [&] {
      Pending p;
      p.id = next_id++;
      Request& req = p.request;
      req.tenant = static_cast<std::uint32_t>(p.id % tenants_.size());
      req.op = PickOp(rng);
      const std::vector<Object>& objects = tenants_[req.tenant].objects;
      std::size_t& cursor = req.op == Op::kCompress
                                ? compress_next[req.tenant]
                                : decompress_next[req.tenant];
      req.object = static_cast<std::uint32_t>(cursor++ % objects.size());
      const Object& object = objects[req.object];
      if (req.op == Op::kRange) req.first = RangeStart(object, rng);
      Bytes payload = req.op == Op::kCompress ? object.raw : object.stream;
      const std::string& tenant = tenants_[req.tenant].tenant;
      p.submit_ns = NowNs();
      p.measured = p.submit_ns >= window_start;
      if (p.measured && req.op == Op::kCompress) ++compress_requests;
      {
        ScopedSpan span(p.measured ? lane : nullptr, "service.submit", p.id);
        switch (req.op) {
          case Op::kCompress:
            p.future = svc->SubmitCompress(tenant, std::move(payload));
            break;
          case Op::kDecompress:
            p.future = svc->SubmitDecompress(tenant, std::move(payload));
            break;
          case Op::kRange:
            p.future = svc->SubmitDecompressRange(tenant, std::move(payload),
                                                  req.first, kRangeElements);
            break;
        }
      }
      if (p.measured) submit_us.Add(Micros(NowNs() - p.submit_ns));
      pending.push_back(std::move(p));
    };

    const auto complete = [&] {
      Pending p = std::move(pending.front());
      pending.pop_front();
      service::ServiceResponse reply;
      {
        ScopedSpan span(p.measured ? lane : nullptr, "service.wait", p.id);
        reply = p.future.get();
      }
      const std::uint64_t done = NowNs();
      const Object& object =
          tenants_[p.request.tenant].objects[p.request.object];
      ++result.attempted;
      const bool ok =
          reply.ok() && VerifyReply(object, p.request, reply.payload);
      if (!ok) ++result.failed;
      if (ok) buckets.Add(done, UserBytes(object, p.request));
      if (p.measured) {
        latency_us.Add(Micros(done - p.submit_ns));
        verify_us.Add(Micros(NowNs() - done));
        if (ok && p.request.op == Op::kCompress) {
          ratio_raw += static_cast<double>(object.raw.size());
          ratio_stream += static_cast<double>(reply.payload.size());
          ++ratio_n;
        }
      }
    };

    for (std::size_t i = 0; i < kOutstanding; ++i) submit();
    while (NowNs() < window_start) {
      complete();
      submit();
    }
    MeasuredInterval interval(config.tracer);
    interval.Begin(lane);
    rss.Start(window_start, config.window_s);
    const service::ServiceStatsSnapshot stats_before = svc->Stats();
    const std::uint64_t memo_before = TotalMemoHits(*svc, tenants_);
    while (NowNs() < window_end) {
      complete();
      submit();
    }
    while (!pending.empty()) complete();
    interval.End();

    AddEndToEnd(result.values, setup_s, buckets.MedianMBps(), buckets.slices(),
                latency_us, Ratio(ratio_raw, ratio_stream), ratio_n, rss);
    if (config.tracer != nullptr) {
      MetricValues& out = result.values;
      AddRegistryLayers(interval.delta(), interval.wall_s(), out);
      AddServiceLayers(stats_before, svc->Stats(),
                       TotalMemoHits(*svc, tenants_) - memo_before,
                       compress_requests, out);
      result.failed += AddKernelLayers(PayloadChunk(tenants_), out);
      AddCoreProbe(FirstObjects(tenants_, 64), config.tracer, out);
      Put(out, "service.submit_us_mean", submit_us.Mean(), submit_us.size());
      Put(out, "loadgen.verify_us_mean", verify_us.Mean(), verify_us.size());
      Put(out, "loadgen.outstanding_mean",
          Ratio(latency_us.Sum() * 1e-6, interval.wall_s()), latency_us.size());
    }
    return result;
  }

 private:
  std::uint64_t seed_ = 0;
  std::vector<TenantObjects> tenants_;
};

// ---------------------------------------------------------------- daemon_hot

class DaemonHot final : public Workload {
 public:
  static constexpr std::size_t kObjects = 256;

  void Prepare(std::uint64_t seed) override {
    seed_ = seed;
    tenants_ = BuildTenantObjects(seed, {512}, kObjects * 4096);
    socket_path_ = "primacy_bench_" + std::to_string(::getpid()) + ".sock";
  }

  PassResult Run(const PassConfig& config) override {
    PassResult result;
    RssSampler rss;
    rss.Reset();

    // Set-up: service + tenants, server Start, client connect, through the
    // first verified reply. The reply waits out the 2 ms batch timer, as a
    // lone client call to the daemon does.
    Samples setup_s;
    std::unique_ptr<service::CompressionService> svc;
    std::unique_ptr<transport::TransportServer> server;
    for (std::size_t r = 0; r < config.setup_repeats; ++r) {
      server.reset();
      svc.reset();
      const Object& object = SetupObject(tenants_, r);
      const std::uint64_t t0 = NowNs();
      svc = StartService(tenants_);
      transport::TransportServerOptions server_options;
      server_options.socket_path = socket_path_;
      server =
          std::make_unique<transport::TransportServer>(*svc, server_options);
      std::string error;
      if (!server->Start(&error)) {
        throw std::runtime_error("transport server start failed: " + error);
      }
      transport::TransportClient client(ClientOptions());
      const transport::TransportResult reply =
          client.Compress(tenants_[0].tenant, object.raw);
      setup_s.Add(Seconds(NowNs() - t0));
      ++result.attempted;
      if (!reply.ok() || Xxh64(reply.payload) != object.stream_hash) {
        ++result.failed;
      }
    }

    const std::uint64_t window_start = NowNs() + SecondsToNs(config.warmup_s);
    const std::uint64_t window_end =
        window_start + SecondsToNs(config.window_s);
    const ZipfSampler zipf(kObjects, 1.0);

    struct Caller {
      explicit Caller(std::uint64_t start, double window_s)
          : buckets(start, window_s) {}
      Samples latency_us, verify_us;
      RateBuckets buckets;
      std::uint64_t attempted = 0, failed = 0;
      double ratio_raw = 0.0, ratio_stream = 0.0;
      std::size_t ratio_n = 0, compress_calls = 0;
      transport::TransportClientStats before, after;
    };
    std::vector<Caller> callers;
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      callers.emplace_back(window_start, config.window_s);
    }
    std::vector<Tracer::Lane*> lanes(tenants_.size(), nullptr);
    if (config.tracer != nullptr) {
      for (std::size_t t = 0; t < lanes.size(); ++t) {
        lanes[t] = &config.tracer->NewLane("caller_" + std::to_string(t));
      }
    }

    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      threads.emplace_back([&, t] {
        Caller& caller = callers[t];
        Tracer::Lane* lane = lanes[t];
        const TenantObjects& tenant = tenants_[t];
        Rng rng = StreamRng(seed_, 10 + t);
        transport::TransportClient client(ClientOptions());
        std::uint32_t root = 0;
        bool in_window = false;
        std::uint64_t id = 0;
        while (NowNs() < window_end) {
          if (!in_window && NowNs() >= window_start) {
            in_window = true;
            caller.before = client.ClientStats();
            if (lane != nullptr) root = lane->Begin("loadgen.window", 0);
          }
          Request req;
          req.tenant = static_cast<std::uint32_t>(t);
          req.op = PickOp(rng);
          req.object = static_cast<std::uint32_t>(zipf.Next(rng));
          const Object& object = tenant.objects[req.object];
          if (req.op == Op::kRange) req.first = RangeStart(object, rng);
          const std::uint64_t t0 = NowNs();
          transport::TransportResult reply;
          {
            ScopedSpan span(in_window ? lane : nullptr, "transport.call", id);
            switch (req.op) {
              case Op::kCompress:
                reply = client.Compress(tenant.tenant, object.raw);
                break;
              case Op::kDecompress:
                reply = client.Decompress(tenant.tenant, object.stream);
                break;
              case Op::kRange:
                reply = client.DecompressRange(tenant.tenant, object.stream,
                                               req.first, kRangeElements);
                break;
            }
          }
          const std::uint64_t t1 = NowNs();
          ++id;
          ++caller.attempted;
          const bool ok = reply.ok() && VerifyReply(object, req, reply.payload);
          if (!ok) ++caller.failed;
          if (!in_window) continue;
          if (ok) caller.buckets.Add(t1, UserBytes(object, req));
          caller.latency_us.Add(Micros(t1 - t0));
          caller.verify_us.Add(Micros(NowNs() - t1));
          if (req.op == Op::kCompress) {
            ++caller.compress_calls;
            if (ok) {
              caller.ratio_raw += static_cast<double>(object.raw.size());
              caller.ratio_stream += static_cast<double>(reply.payload.size());
              ++caller.ratio_n;
            }
          }
        }
        if (lane != nullptr && in_window) lane->End(root);
        caller.after = client.ClientStats();
      });
    }

    rss.Start(window_start, config.window_s);
    MeasuredInterval interval(config.tracer);
    service::ServiceStatsSnapshot stats_before;
    transport::TransportServerStats server_before;
    std::uint64_t memo_before = 0;
    if (config.tracer != nullptr) {
      SleepUntilNs(window_start);
      interval.Begin(nullptr);
      stats_before = svc->Stats();
      server_before = server->Stats();
      memo_before = TotalMemoHits(*svc, tenants_);
    }
    for (std::thread& thread : threads) thread.join();
    interval.End();

    Samples latency_us, verify_us;
    RateBuckets buckets(window_start, config.window_s);
    double ratio_raw = 0.0, ratio_stream = 0.0;
    std::size_t ratio_n = 0, compress_calls = 0;
    std::uint64_t retries = 0;
    for (const Caller& caller : callers) {
      latency_us.Append(caller.latency_us);
      verify_us.Append(caller.verify_us);
      buckets.Merge(caller.buckets);
      result.attempted += caller.attempted;
      result.failed += caller.failed;
      ratio_raw += caller.ratio_raw;
      ratio_stream += caller.ratio_stream;
      ratio_n += caller.ratio_n;
      compress_calls += caller.compress_calls;
      retries += caller.after.retries - caller.before.retries;
    }

    AddEndToEnd(result.values, setup_s, buckets.MedianMBps(), buckets.slices(),
                latency_us, Ratio(ratio_raw, ratio_stream), ratio_n, rss);
    if (config.tracer != nullptr) {
      MetricValues& out = result.values;
      AddRegistryLayers(interval.delta(), interval.wall_s(), out);
      AddServiceLayers(stats_before, svc->Stats(),
                       TotalMemoHits(*svc, tenants_) - memo_before,
                       compress_calls, out);
      const transport::TransportServerStats server_after = server->Stats();
      Put(out, "transport.boundary_us_mean",
          latency_us.Mean() - out["transport.server_request_us_mean"].first,
          latency_us.size());
      Put(out, "transport.retries", static_cast<double>(retries),
          latency_us.size());
      Put(out, "transport.server_errors",
          static_cast<double>(server_after.errors - server_before.errors),
          server_after.requests - server_before.requests);
      result.failed += AddKernelLayers(PayloadChunk(tenants_), out);
      AddCoreProbe(FirstObjects(tenants_, 64), config.tracer, out);
      Put(out, "loadgen.verify_us_mean", verify_us.Mean(), verify_us.size());
      Put(out, "loadgen.outstanding_mean",
          Ratio(latency_us.Sum() * 1e-6, interval.wall_s()), latency_us.size());
    }
    server->Shutdown();
    return result;
  }

 private:
  transport::TransportClientOptions ClientOptions() const {
    transport::TransportClientOptions options;
    options.socket_path = socket_path_;
    options.max_pooled_connections = 1;
    return options;
  }

  std::uint64_t seed_ = 0;
  std::vector<TenantObjects> tenants_;
  std::string socket_path_;
};

}  // namespace

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"throughput_mbps", "MB/s"},
      {"latency_us_p10", "us"},
      {"latency_us_p50", "us"},
      {"compression_ratio", "x"},
      {"mem_peak_mib", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"kernels.split_w8_h2_gbps", "GB/s"},
      {"kernels.merge_w8_h2_gbps", "GB/s"},
      {"kernels.count_pairs_gbps", "GB/s"},
      {"kernels.map_ids16_gbps", "GB/s"},
      {"kernels.unmap_ids16_gbps", "GB/s"},
      {"kernels.histogram_stride_gbps", "GB/s"},
      {"core.encode.split_ns_per_kib", "ns/KiB"},
      {"core.encode.frequency_ns_per_kib", "ns/KiB"},
      {"core.encode.id_map_ns_per_kib", "ns/KiB"},
      {"core.encode.solver_ns_per_kib", "ns/KiB"},
      {"core.encode.isobar_ns_per_kib", "ns/KiB"},
      {"core.encode.serialize_ns_per_kib", "ns/KiB"},
      {"core.encode.cpu_over_wall", "cores"},
      {"core.isobar.compressible_fraction", "fraction"},
      {"core.index_bytes_fraction", "fraction"},
      {"core.decode.frequency_ns_per_kib", "ns/KiB"},
      {"core.decode.id_map_ns_per_kib", "ns/KiB"},
      {"core.decode.solver_ns_per_kib", "ns/KiB"},
      {"core.decode.isobar_ns_per_kib", "ns/KiB"},
      {"core.decode.merge_ns_per_kib", "ns/KiB"},
      {"core.decode.cpu_over_wall", "cores"},
      {"core.decode.chunks_per_range_read", "count"},
      {"util.pool.task_wait_us_mean", "us/task"},
      {"util.pool.task_run_us_mean", "us/task"},
      {"util.pool.busy_fraction", "fraction"},
      {"util.pool.tasks_per_s", "1/s"},
      {"cache.hit_ratio", "fraction"},
      {"cache.evictions_per_s", "1/s"},
      {"service.submit_us_mean", "us/op"},
      {"service.batch_latency_us_mean", "us/op"},
      {"service.timeout_flush_fraction", "fraction"},
      {"service.items_per_batch", "count"},
      {"service.memo_hit_ratio", "fraction"},
      {"service.rejected", "count"},
      {"transport.server_request_us_mean", "us/op"},
      {"transport.boundary_us_mean", "us/op"},
      {"transport.retries", "count"},
      {"transport.server_errors", "count"},
      {"store.add_ms_mean", "ms/op"},
      {"store.finish_ms_mean", "ms/op"},
      {"store.reader_open_ms_mean", "ms/op"},
      {"store.read_all_ms_mean", "ms/op"},
      {"loadgen.verify_us_mean", "us/op"},
      {"loadgen.outstanding_mean", "count"},
      {"trace.overhead_pct", "%"},
      {"trace.self_pct.loadgen", "%"},
      {"trace.self_pct.store", "%"},
      {"trace.self_pct.service", "%"},
      {"trace.self_pct.transport", "%"},
  };
  return defs;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "ckpt_write", "ckpt_restore", "service_cold", "daemon_hot"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "ckpt_write") return std::make_unique<CkptWrite>();
  if (name == "ckpt_restore") return std::make_unique<CkptRestore>();
  if (name == "service_cold") return std::make_unique<ServiceCold>();
  if (name == "daemon_hot") return std::make_unique<DaemonHot>();
  return nullptr;
}

std::vector<Metric> Tabulate(const std::vector<MetricDef>& defs,
                             const MetricValues& values) {
  std::vector<Metric> list;
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    const auto [value, samples] =
        it == values.end() ? std::pair<double, std::size_t>{0.0, 0}
                           : it->second;
    list.push_back({def.name, value, def.unit, samples});
  }
  return list;
}

}  // namespace primacy::bench
