#include "storage/catalog.h"

#include <algorithm>

#include "util/strings.h"

namespace htqo {

void Catalog::Put(const std::string& name, Relation relation) {
  relations_[ToLower(name)] =
      std::make_unique<Relation>(std::move(relation));
}

const Relation* Catalog::Find(const std::string& name) const {
  auto it = relations_.find(ToLower(name));
  if (it != relations_.end()) return it->second.get();
  return base_ != nullptr ? base_->Find(name) : nullptr;
}

Result<const Relation*> Catalog::Get(const std::string& name) const {
  const Relation* r = Find(name);
  if (r == nullptr) {
    return Status::InvalidArgument("unknown relation: " + name);
  }
  return r;
}

std::vector<std::string> Catalog::Names() const {
  std::vector<std::string> out;
  if (base_ != nullptr) out = base_->Names();
  for (const auto& [name, rel] : relations_) out.push_back(name);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::size_t Catalog::TotalRows() const {
  std::size_t n = 0;
  for (const std::string& name : Names()) n += Find(name)->NumRows();
  return n;
}

}  // namespace htqo
