// Catalog: the named-relation store a Database exposes to the optimizer and
// executor. Relation names are case-insensitive, as in SQL.

#ifndef HTQO_STORAGE_CATALOG_H_
#define HTQO_STORAGE_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/relation.h"
#include "util/status.h"

namespace htqo {

class Catalog {
 public:
  Catalog() = default;
  // A scratch catalog layered over `base` (which must outlive it): relations
  // Put here shadow base's, every other lookup falls through to it.
  explicit Catalog(const Catalog* base) : base_(base) {}

  // Catalog is the owner of all base relations; moving it around would
  // invalidate pointers handed out by Find, so it is pinned.
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // Registers `relation` under `name`, replacing any previous relation with
  // that name.
  void Put(const std::string& name, Relation relation);

  // Pointer to the relation registered under `name`, or nullptr. The pointer
  // stays valid until the relation is replaced or the catalog is destroyed.
  const Relation* Find(const std::string& name) const;

  // As Find, but returns InvalidArgument when missing.
  Result<const Relation*> Get(const std::string& name) const;

  bool Contains(const std::string& name) const {
    return Find(name) != nullptr;
  }

  std::vector<std::string> Names() const;

  // Total number of tuples over all relations; a proxy for database size.
  std::size_t TotalRows() const;

 private:
  // unique_ptr keeps Relation addresses stable across map rehash/growth.
  std::map<std::string, std::unique_ptr<Relation>> relations_;
  const Catalog* base_ = nullptr;
};

}  // namespace htqo

#endif  // HTQO_STORAGE_CATALOG_H_
