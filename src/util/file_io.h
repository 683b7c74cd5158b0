// Whole-file I/O shared by the two binary formats, summary v4
// (core/serialization.h) and logr-log v1 (workload/binary_log.h): one
// atomic writer and one whole-file reader.
#ifndef LOGR_UTIL_FILE_IO_H_
#define LOGR_UTIL_FILE_IO_H_

#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace logr {

/// Writes `path` so that no reader sees it half written: `write` fills
/// the temporary `<path>.tmp.<pid>` (same directory, so rename(2) is
/// atomic), which is renamed over `path` once complete. A reader that
/// opened or mapped the old file keeps the old bytes, and a killed
/// writer leaves the old file or a stray temporary, never a torn file.
/// On failure removes the temporary and returns false. `write` reports
/// its own errors; this function's go to `error`: "cannot open for
/// writing: <temporary>", "write failed: <temporary>" or "cannot
/// publish <what> (rename failed): <path>".
bool WriteFileAtomically(const std::string& path, const char* what,
                         const std::function<bool(std::ostream*)>& write,
                         std::string* error);

/// Reads the whole file at `path` into `bytes` in one sized read.
/// Returns false with `error` set to "cannot open for reading: <path>",
/// "cannot determine size of: <path>" or "read failed: <path>".
bool ReadWholeFile(const std::string& path, std::vector<char>* bytes,
                   std::string* error);

}  // namespace logr

#endif  // LOGR_UTIL_FILE_IO_H_
