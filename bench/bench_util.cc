#include "bench_util.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <optional>

#include "telemetry/exporter/observability_hub.h"
#include "util/error.h"
#include "util/timer.h"

namespace primacy::bench {
namespace {

struct BenchConfig {
  bool quick = false;
  std::optional<std::size_t> elements_override;
};

BenchConfig& Config() {
  static BenchConfig config;
  return config;
}

/// JSON string escaping (quotes, backslash, control characters).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonString(const std::string& s) {
  return "\"" + JsonEscape(s) + "\"";
}

/// JSON has no inf/NaN; unmeasurable values become null so the file always
/// parses.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

void Init(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      Config().quick = true;
    } else if (std::strcmp(argv[i], "--elements") == 0 && i + 1 < argc) {
      Config().elements_override =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--elements N]\n", argv[0]);
      std::exit(2);
    }
  }
  // Any bench becomes scrapeable/traceable/profilable without code changes:
  // PRIMACY_METRICS_PORT / PRIMACY_TRACE_DIR / PRIMACY_PROFILE_HZ. No-op
  // when none are set.
  telemetry::MaybeStartHubFromEnv();
}

bool Quick() { return Config().quick; }

std::size_t BenchElements() {
  static const std::size_t elements = [] {
    if (Config().elements_override.has_value()) {
      return *Config().elements_override;
    }
    if (const char* env = std::getenv("PRIMACY_BENCH_ELEMENTS")) {
      return static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
    }
    if (Config().quick) {
      return static_cast<std::size_t>(16384);  // CI smoke: 128 KB per dataset
    }
    return static_cast<std::size_t>(256) * 1024;  // 2 MB per dataset
  }();
  return elements;
}

const std::vector<double>& DatasetValues(const std::string& name) {
  static auto* cache = new std::map<std::string, std::vector<double>>();
  auto it = cache->find(name);
  if (it == cache->end()) {
    it = cache->emplace(name, GenerateDatasetByName(name, BenchElements()))
             .first;
  }
  return it->second;
}

ByteSpan DatasetBytes(const std::string& name) {
  return AsBytes(DatasetValues(name));
}

double PrimacyMeasurement::CompressionRatio() const {
  return compressed_bytes == 0
             ? 0.0
             : static_cast<double>(stats.input_bytes) /
                   static_cast<double>(compressed_bytes);
}

double PrimacyMeasurement::CompressMBps() const {
  return ThroughputMBps(stats.input_bytes, compress_seconds);
}

double PrimacyMeasurement::DecompressMBps() const {
  return ThroughputMBps(stats.input_bytes, decompress_seconds);
}

PrimacyMeasurement MeasurePrimacy(std::span<const double> values,
                                  const PrimacyOptions& options) {
  const PrimacyCompressor compressor(options);
  PrimacyMeasurement m;
  WallTimer timer;
  const Bytes stream = compressor.Compress(values, &m.stats);
  m.compress_seconds = timer.Seconds();
  m.compressed_bytes = stream.size();

  const PrimacyDecompressor decompressor(options);
  timer.Reset();
  const std::vector<double> restored =
      decompressor.Decompress(stream, &m.decode_stats);
  m.decompress_seconds = timer.Seconds();
  if (restored.size() != values.size() ||
      !std::equal(restored.begin(), restored.end(), values.begin())) {
    throw InternalError("MeasurePrimacy: roundtrip mismatch");
  }
  return m;
}

void PrintHeader(const std::string& title, const std::string& paper_ref) {
  PrintRule();
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Synthetic dataset size: %zu doubles (%.1f MB) per dataset; "
              "set PRIMACY_BENCH_ELEMENTS to change.\n",
              BenchElements(), BenchElements() * 8.0 / 1e6);
  PrintRule();
}

void PrintRule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

BenchReport::Entry& BenchReport::Entry::Set(const std::string& key,
                                            double value) {
  fields_.emplace_back(key, JsonNumber(value));
  return *this;
}

BenchReport::Entry& BenchReport::Entry::Set(const std::string& key,
                                            std::size_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

BenchReport::Entry& BenchReport::Entry::Set(const std::string& key,
                                            int value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

BenchReport::Entry& BenchReport::Entry::Set(const std::string& key,
                                            bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

BenchReport::Entry& BenchReport::Entry::Set(const std::string& key,
                                            const std::string& value) {
  fields_.emplace_back(key, JsonString(value));
  return *this;
}

BenchReport::Entry& BenchReport::Entry::Set(const std::string& key,
                                            const char* value) {
  return Set(key, std::string(value));
}

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {}

BenchReport::~BenchReport() {
  try {
    Write();
  } catch (...) {
    // Destructor: swallow write failures (the console table already ran).
  }
}

BenchReport::Entry& BenchReport::AddEntry(const std::string& label) {
  entries_.emplace_back();
  entries_.back().fields_.emplace_back("label", JsonString(label));
  return entries_.back();
}

void BenchReport::Write() {
  if (written_) return;
  written_ = true;
  const std::string path = "BENCH_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": %s,\n", JsonString(name_).c_str());
  std::fprintf(f, "  \"unix_time\": %lld,\n",
               static_cast<long long>(std::time(nullptr)));
  std::fprintf(f, "  \"elements\": %zu,\n", BenchElements());
  std::fprintf(f, "  \"quick\": %s,\n", Quick() ? "true" : "false");
  std::fprintf(f, "  \"entries\": [");
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    std::fprintf(f, "%s\n    {", i == 0 ? "" : ",");
    const auto& fields = entries_[i].fields_;
    for (std::size_t j = 0; j < fields.size(); ++j) {
      std::fprintf(f, "%s%s: %s", j == 0 ? "" : ", ",
                   JsonString(fields[j].first).c_str(),
                   fields[j].second.c_str());
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("Wrote %s\n", path.c_str());
}

}  // namespace primacy::bench
