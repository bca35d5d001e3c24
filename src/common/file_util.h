// Small filesystem helpers shared by the checkpoint writers (recovery,
// plan cache, stream state).

#ifndef ETLOPT_COMMON_FILE_UTIL_H_
#define ETLOPT_COMMON_FILE_UTIL_H_

#include <filesystem>
#include <functional>
#include <string>

#include "common/statusor.h"

namespace etlopt {

/// Writes `bytes` to `path` via a sibling temp file + rename, so readers
/// never observe a half-written file. Creates the parent directory if
/// it is missing.
Status WriteFileAtomic(const std::string& path, const std::string& bytes);

/// Reads the whole file into a byte string. IOError when the file cannot
/// be opened or read.
StatusOr<std::string> ReadFileToString(const std::string& path);

/// Bounded-retention GC over the entries of `dir` that `matches` accepts,
/// never touching `keep`: all but the `max_retained` most recently
/// written are deleted, oldest first (path breaks mtime ties so equal
/// mtimes prune predictably). Best-effort; returns how many were deleted.
size_t PruneOldest(
    const std::string& dir, const std::string& keep, size_t max_retained,
    const std::function<bool(const std::filesystem::directory_entry&)>&
        matches);

}  // namespace etlopt

#endif  // ETLOPT_COMMON_FILE_UTIL_H_
