// bench_snapshot: what snapshot format v2 (flat, mmap) buys.
//
//   cold load     wall time of PexesoIndex::Load on a cold cache entry:
//                 v1 = legacy streamed snapshot (full deserialization into
//                 heap structures), v2 = flat snapshot (CRC pass + mmap +
//                 pointer fixup). Acceptance: v2 >= 3x faster.
//   residency     bytes the IndexCache charges per loaded snapshot, split
//                 into private heap vs kernel-reclaimable mapped pages.
//
// Results go to stdout and BENCH_snapshot.json ("BENCH_snapshot/v2").

#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench_common.h"
#include "serve/index_cache.h"

namespace pexeso::bench {
namespace {

struct SnapshotNumbers {
  double v1_load_seconds = 0.0;
  double v2_load_seconds = 0.0;
  size_t v1_file_bytes = 0;
  size_t v2_file_bytes = 0;
  size_t v1_resident_bytes = 0;
  size_t v2_resident_bytes = 0;
  size_t v2_mapped_bytes = 0;
};

void WriteSnapshotBenchJson(const VectorLakeOptions& profile, size_t loads,
                            const SnapshotNumbers& n) {
  const char* path_env = std::getenv("PEXESO_BENCH_SNAPSHOT_JSON");
  const std::string path =
      path_env != nullptr ? path_env : "BENCH_snapshot.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const double speedup =
      n.v1_load_seconds / std::max(n.v2_load_seconds, 1e-9);
  std::fprintf(f, "{\n  \"schema\": \"BENCH_snapshot/v2\",\n");
  std::fprintf(f, "  \"hw_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"columns\": %u,\n  \"dim\": %u,\n",
               profile.num_columns, profile.dim);
  std::fprintf(f, "  \"cold_loads\": %zu,\n", loads);
  std::fprintf(f,
               "  \"cold_load\": {\"v1_seconds\": %.6f, \"v2_seconds\": "
               "%.6f, \"v2_speedup\": %.2f},\n",
               n.v1_load_seconds, n.v2_load_seconds, speedup);
  std::fprintf(f,
               "  \"bytes\": {\"v1_file\": %zu, \"v2_file\": %zu, "
               "\"v1_resident\": %zu, \"v2_resident\": %zu, "
               "\"v2_mapped\": %zu}\n}\n",
               n.v1_file_bytes, n.v2_file_bytes, n.v1_resident_bytes,
               n.v2_resident_bytes, n.v2_mapped_bytes);
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

void SnapshotExperiment(const VectorLakeOptions& profile) {
  namespace fs = std::filesystem;
  ColumnCatalog catalog = GenerateVectorLake(profile);
  std::printf("lake: %zu columns, %zu vectors, dim %u\n",
              catalog.num_columns(), catalog.num_vectors(), catalog.dim());

  const std::string dir =
      (fs::temp_directory_path() / "pexeso_bench_snapshot").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string v1_path = dir + "/legacy.pxso";
  const std::string v2_path = dir + "/flat.pxso";

  L2Metric metric;
  PexesoOptions opts;
  opts.num_pivots = 5;
  opts.levels = 5;
  PexesoIndex index = PexesoIndex::Build(std::move(catalog), &metric, opts);
  PEXESO_CHECK(index.SaveLegacy(v1_path).ok());
  PEXESO_CHECK(index.Save(v2_path).ok());

  SnapshotNumbers n;
  n.v1_file_bytes = static_cast<size_t>(fs::file_size(v1_path));
  n.v2_file_bytes = static_cast<size_t>(fs::file_size(v2_path));

  // Cold loads: every iteration is a full Load from disk. The heap path
  // deserializes; the flat path CRCs and binds views.
  const size_t loads = 5;
  for (size_t i = 0; i < loads; ++i) {
    n.v1_load_seconds += TimeIt([&] {
      auto loaded = PexesoIndex::Load(v1_path, &metric);
      PEXESO_CHECK(loaded.ok());
      n.v1_resident_bytes = serve::IndexCache::ResidentBytes(loaded.value());
    });
    n.v2_load_seconds += TimeIt([&] {
      auto loaded = PexesoIndex::Load(v2_path, &metric);
      PEXESO_CHECK(loaded.ok());
      n.v2_resident_bytes = serve::IndexCache::ResidentBytes(loaded.value());
      n.v2_mapped_bytes = loaded.value().MappedBytes();
    });
  }
  n.v1_load_seconds /= static_cast<double>(loads);
  n.v2_load_seconds /= static_cast<double>(loads);

  std::printf("\ncold load (avg of %zu):\n", loads);
  std::printf("  v1 streamed  %10.2f ms  (%zu bytes on disk, %zu resident)\n",
              n.v1_load_seconds * 1e3, n.v1_file_bytes, n.v1_resident_bytes);
  std::printf("  v2 flat      %10.2f ms  (%zu bytes on disk, %zu resident, "
              "%zu mapped)\n",
              n.v2_load_seconds * 1e3, n.v2_file_bytes, n.v2_resident_bytes,
              n.v2_mapped_bytes);
  std::printf("  v2 speedup   %10.2fx  (acceptance floor: 3x)\n",
              n.v1_load_seconds / std::max(n.v2_load_seconds, 1e-9));

  WriteSnapshotBenchJson(profile, loads, n);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pexeso::bench

int main() {
  using namespace pexeso::bench;
  using pexeso::BenchProfiles;
  Banner("bench_snapshot: flat mmap snapshots",
         "the serving-layer cold-start cost");
  const double scale = BenchProfiles::EnvScale();
  SnapshotExperiment(BenchProfiles::LwdcLike(scale));
  return 0;
}
