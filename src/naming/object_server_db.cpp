#include "naming/object_server_db.h"

#include <algorithm>

namespace gv::naming {

SvView ObjectServerDb::view_of(const Entry& e) {
  SvView v;
  v.sv = e.sv;
  v.epoch = e.epoch;
  for (const auto& [server, clients] : e.use)
    for (const auto& [client, tokens] : clients)
      if (!tokens.empty())
        v.use.push_back(UseEntry{server, client, static_cast<std::uint32_t>(tokens.size())});
  return v;
}

std::uint64_t ObjectServerDb::epoch_of(const Uid& object) const noexcept {
  auto it = entries.find(object);
  return it == entries.end() ? 0 : it->second.epoch;
}

Result<SvView> ObjectServerDb::peek_view(const Uid& object) const {
  auto it = entries.find(object);
  if (it == entries.end()) return Err::NotFound;
  return view_of(it->second);
}

std::vector<NodeId> ObjectServerDb::clients_in_use() const {
  // Entries with use lists, in UID order: the janitor pings the clients
  // in the order returned.
  std::vector<const std::pair<const Uid, Entry>*> used;
  for (const auto& entry : entries)
    if (!entry.second.use.empty()) used.push_back(&entry);
  std::sort(used.begin(), used.end(), [](auto* a, auto* b) { return a->first < b->first; });
  std::vector<NodeId> out;
  for (const auto* entry : used)
    for (const auto& [server, clients] : entry->second.use)
      for (const auto& [client, tokens] : clients)
        if (!tokens.empty() && std::find(out.begin(), out.end(), client) == out.end())
          out.push_back(client);
  return out;
}

}  // namespace gv::naming
