// Field-by-field equality of the loader's outputs, with a mismatch
// report. The tests and the loader fuzz driver hold every path that
// builds a QueryLog (text, .logrl, mmap, shards) to each other with it.
// Linked through the logr_oracles library; not part of `logr`.
#ifndef LOGR_ORACLES_SAME_LOG_H_
#define LOGR_ORACLES_SAME_LOG_H_

#include <string>

#include "workload/loader.h"
#include "workload/query_log.h"

namespace logr {

/// True when `a` and `b` agree field by field; otherwise false, with the
/// first differing field named in `*why` (when `why` is not null).
bool SameQueryLog(const QueryLog& a, const QueryLog& b, std::string* why);
bool SameDatasetSummary(const DatasetSummary& a, const DatasetSummary& b,
                        std::string* why);

}  // namespace logr

#endif  // LOGR_ORACLES_SAME_LOG_H_
