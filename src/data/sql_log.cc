#include "data/sql_log.h"

namespace logr {

LogLoader LoadEntries(const std::vector<LogEntry>& entries,
                      LogLoader::Options opts) {
  LogLoader loader(std::move(opts));
  for (const LogEntry& e : entries) {
    loader.AddSql(e.sql, e.count);
  }
  return loader;
}

}  // namespace logr
