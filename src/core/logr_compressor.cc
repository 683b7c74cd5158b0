#include "core/logr_compressor.h"

#include "core/sharded.h"
#include "util/check.h"

namespace logr {

LogRSummary Compress(const LogView& log, const LogROptions& opts) {
  if (opts.num_shards > 1) return CompressSharded(log, opts);
  return CompressionPipeline(log, opts).RunFixedK();
}

LogRSummary CompressAdaptive(const LogView& log, std::size_t num_clusters,
                             const LogROptions& opts) {
  // Sharding covers the fixed-K strategy only; fail loudly rather than
  // silently running one monolithic pipeline for a caller who asked for
  // shards (the adaptive bisection is global).
  LOGR_CHECK_MSG(opts.num_shards <= 1,
                 "num_shards > 1 is only supported by Compress");
  return CompressionPipeline(log, opts).RunAdaptive(num_clusters);
}

}  // namespace logr
