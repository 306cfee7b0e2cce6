// .pgds-backed sample-set cache (see corpus_cache.hpp).
#include "dataset/corpus_cache.hpp"

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <filesystem>

#include "graph/builder.hpp"
#include "io/dataset_view.hpp"
#include "io/pgraph_io.hpp"

namespace pg::dataset {
namespace {

std::string slug(const std::string& name) {
  std::string out;
  bool last_dash = true;  // swallow leading separators
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      last_dash = false;
    } else if (!last_dash) {
      out += '-';
      last_dash = true;
    }
  }
  while (!out.empty() && out.back() == '-') out.pop_back();
  return out;
}

std::string representation_slug(graph::Representation representation) {
  switch (representation) {
    case graph::Representation::kRawAst: return "raw";
    case graph::Representation::kAugmentedAst: return "augmented";
    case graph::Representation::kParaGraph: return "paragraph";
  }
  return "unknown";
}

}  // namespace

std::uint64_t points_fingerprint(const std::vector<RawDataPoint>& points) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix_bytes = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  };
  auto mix_str = [&](const std::string& s) {
    mix_bytes(s.data(), s.size());
    mix_bytes("\xff", 1);  // separator
  };
  const std::uint64_t count = points.size();
  mix_bytes(&count, sizeof count);
  for (const RawDataPoint& p : points) {
    mix_str(p.app);
    mix_str(p.kernel);
    mix_str(p.variant);
    mix_bytes(&p.num_teams, sizeof p.num_teams);
    mix_bytes(&p.num_threads, sizeof p.num_threads);
    // Runtime bits: any simulator retune changes the hash.
    mix_bytes(&p.runtime_us, sizeof p.runtime_us);
    // Source text: any kernel-spec or variant-instantiation change too.
    mix_str(p.source);
  }
  return h;
}

std::string corpus_cache_path(const std::string& dir, const CorpusKey& key,
                              std::uint64_t fingerprint) {
  std::string name = slug(key.platform_name);
  name += '-';
  name += to_string(key.scale);
  name += '-';
  name += representation_slug(key.representation);
  name += "-seed" + std::to_string(key.seed);
  if (key.log_target) name += "-log";
  char fp[24];
  std::snprintf(fp, sizeof fp, "-fp%016llx",
                static_cast<unsigned long long>(fingerprint));
  name += fp;
  name += ".pgds";
  return (std::filesystem::path(dir) / name).string();
}

model::SampleSet load_or_build_sample_set(const std::string& dir,
                                          const CorpusKey& key,
                                          const std::vector<RawDataPoint>& points,
                                          const SampleBuildConfig& config) {
  if (dir.empty()) return build_sample_set(points, config);

  const std::string path = corpus_cache_path(dir, key, points_fingerprint(points));
  if (std::filesystem::exists(path)) {
    try {
      // Through the checksummed view: a flipped body bit is a FormatError
      // (rebuilt below), never a sample that reaches training.
      io::StoredSampleSet stored = io::load_sample_set(io::DatasetView(path));
      // Filename collisions aside, trust but verify the stored provenance.
      if (stored.meta.platform == key.platform_name &&
          stored.meta.seed == key.seed &&
          stored.meta.log_target == key.log_target &&
          !stored.set.train.empty()) {
        std::fprintf(stderr, "[corpus] loaded %zu train + %zu val samples from %s\n",
                     stored.set.train.size(), stored.set.validation.size(),
                     path.c_str());
        return std::move(stored.set);
      }
      std::fprintf(stderr, "[corpus] %s has mismatched provenance; rebuilding\n",
                   path.c_str());
    } catch (const io::FormatError& e) {
      std::fprintf(stderr, "[corpus] %s unreadable (%s); rebuilding\n",
                   path.c_str(), e.what());
    }
  }

  model::SampleSet set = build_sample_set(points, config);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  // Write-to-temp + rename so concurrent processes sharing the corpus dir
  // never interleave into (or read) a half-written cache file; the rename
  // is atomic within the directory.
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid());
  try {
    io::write_sample_set_file(tmp, set, key.platform_name,
                              std::string(graph::representation_name(
                                  key.representation)),
                              key.seed);
    std::filesystem::rename(tmp, path);
    std::fprintf(stderr, "[corpus] wrote %s\n", path.c_str());
  } catch (const std::exception& e) {
    // A read-only corpus dir must not break the run — caching is best-effort.
    std::fprintf(stderr, "[corpus] cannot write %s (%s)\n", path.c_str(),
                 e.what());
    std::filesystem::remove(tmp, ec);
  }
  return set;
}

}  // namespace pg::dataset
