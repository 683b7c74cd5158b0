// A process-wide, thread-safe name -> implementation table.
//
// ClustererRegistry and EncoderRegistry are both this template: each
// derives from it only to add its Instance() singleton and register its
// built-ins in the constructor. Entries are never removed, so the raw
// pointers Find() hands out stay valid for the life of the process.
#ifndef LOGR_UTIL_NAMED_REGISTRY_H_
#define LOGR_UTIL_NAMED_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"

namespace logr {

template <typename T>
class NamedRegistry {
 public:
  /// Registers `impl` under `name`. Returns false (and keeps the existing
  /// entry) when the name is already taken.
  bool Register(const std::string& name, std::shared_ptr<T> impl) {
    LOGR_CHECK(impl != nullptr);
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.emplace(name, std::move(impl)).second;
  }

  /// The implementation registered under `name`, or nullptr.
  const T* Find(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : it->second.get();
  }

  /// All registered names, sorted.
  std::vector<std::string> Names() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> names;
    names.reserve(entries_.size());
    for (const auto& entry : entries_) names.push_back(entry.first);
    return names;
  }

 protected:
  NamedRegistry() = default;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<T>> entries_;
};

}  // namespace logr

#endif  // LOGR_UTIL_NAMED_REGISTRY_H_
