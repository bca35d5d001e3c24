#include "common/file_util.h"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace etlopt {

namespace fs = std::filesystem;

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  std::error_code ec;
  const fs::path dir = fs::path(path).parent_path();
  if (!dir.empty()) fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create directory: " + dir.string() + ": " +
                           ec.message());
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot create file: " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) return Status::IOError("write failed: " + tmp);
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("rename failed: " + path + ": " + ec.message());
  }
  return Status::OK();
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  if (in) buffer << in.rdbuf();
  if (!in || in.bad()) return Status::IOError("cannot read file: " + path);
  return buffer.str();
}

size_t PruneOldest(
    const std::string& dir, const std::string& keep, size_t max_retained,
    const std::function<bool(const fs::directory_entry&)>& matches) {
  std::error_code ec;
  fs::directory_iterator it(dir, fs::directory_options::skip_permission_denied,
                            ec);
  if (ec) return 0;
  std::vector<std::pair<fs::file_time_type, fs::path>> stale;
  for (fs::directory_iterator end; it != end; it.increment(ec)) {
    if (ec) return 0;
    const fs::directory_entry& entry = *it;
    if (!matches(entry) || entry.path() == fs::path(keep)) continue;
    std::error_code entry_ec;
    fs::file_time_type mtime = entry.last_write_time(entry_ec);
    if (entry_ec) mtime = fs::file_time_type::min();
    stale.emplace_back(mtime, entry.path());
  }
  if (stale.size() <= max_retained) return 0;
  std::sort(stale.begin(), stale.end());
  size_t pruned = 0;
  for (size_t i = 0; i + max_retained < stale.size(); ++i) {
    std::error_code rm_ec;
    fs::remove_all(stale[i].second, rm_ec);
    if (!rm_ec) ++pruned;
  }
  return pruned;
}

}  // namespace etlopt
