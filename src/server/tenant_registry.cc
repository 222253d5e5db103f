#include "src/server/tenant_registry.h"

#include <cstring>
#include <utility>

#include "src/support/logging.h"

namespace pkrusafe {
namespace server {

namespace {

TenantRegistryOptions Normalize(TenantRegistryOptions options) {
  // The per-request touch indexes the scratch as uint64_t words; round a
  // nonzero size up to a whole word so that index never divides by zero.
  if (options.scratch_bytes > 0) {
    options.scratch_bytes =
        (options.scratch_bytes + sizeof(uint64_t) - 1) & ~(sizeof(uint64_t) - 1);
  }
  return options;
}

}  // namespace

TenantRegistry::TenantRegistry(MultiCompartment* mc, TenantRegistryOptions options)
    : mc_(mc), options_(Normalize(options)) {}

Result<TenantSession*> TenantRegistry::GetOrCreate(const std::string& name, uint64_t now_ms) {
  std::lock_guard lock(mu_);
  auto it = sessions_.find(name);
  if (it != sessions_.end()) {
    TenantSession* session = it->second.get();
    if (session->dead) {
      return FailedPreconditionError("tenant '" + name +
                                     "' was killed by an enforcement violation");
    }
    session->last_active_ms = now_ms;
    session->in_flight.fetch_add(1, std::memory_order_relaxed);
    return session;
  }

  PS_ASSIGN_OR_RETURN(const LibraryId library, mc_->RegisterLibrary(name));
  auto session = std::make_unique<TenantSession>();
  session->name = name;
  session->library = library;
  session->last_active_ms = now_ms;
  if (options_.scratch_bytes > 0) {
    session->scratch = mc_->AllocateIn(library, options_.scratch_bytes);
    if (session->scratch == nullptr) {
      // Roll the registration back: the library was never entered (no pins),
      // so release cannot refuse. Without this every failed creation burned
      // a virtual key and a pool reservation — the exact leak class
      // ReleaseLibrary exists to close.
      (void)mc_->ReleaseLibrary(library);
      return ResourceExhaustedError("tenant '" + name + "': private pool exhausted");
    }
    session->scratch_bytes = options_.scratch_bytes;
  }
  TenantSession* raw = session.get();
  raw->in_flight.fetch_add(1, std::memory_order_relaxed);
  sessions_[name] = std::move(session);
  ++stats_.created;
  return raw;
}

void TenantRegistry::Kill(TenantSession* session) {
  std::lock_guard lock(mu_);
  // The caller's in_flight slot keeps the session un-swept, so the pointer
  // is live and is by construction the session the violating request ran in
  // — never a successor that reused the name.
  if (session == nullptr || session->dead) {
    return;
  }
  session->dead = true;
  ++stats_.killed;
}

size_t TenantRegistry::SweepIdle(uint64_t now_ms) {
  // Detach under mu_, release outside it: ReleaseLibrary (key release, pool
  // decommit) is the slow part, and holding mu_ over it stalled every
  // GetOrCreate for the whole sweep.
  std::vector<std::unique_ptr<TenantSession>> detached;
  {
    std::lock_guard lock(mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      TenantSession* session = it->second.get();
      const bool idle = options_.idle_timeout_ms > 0 &&
                        now_ms >= session->last_active_ms + options_.idle_timeout_ms;
      const bool in_flight = session->in_flight.load(std::memory_order_acquire) > 0;
      if (!(session->dead || idle)) {
        ++it;
      } else if (in_flight) {
        // A request is using it: retried on the next sweep.
        ++stats_.release_retries;
        ++it;
      } else {
        // in_flight == 0 (acquire) under mu_ means no worker holds the
        // pointer, and once erased none can reacquire it (GetOrCreate runs
        // under mu_ too). A returning tenant gets a fresh session.
        detached.push_back(std::move(it->second));
        it = sessions_.erase(it);
        ++stats_.released;
      }
    }
  }
  for (const std::unique_ptr<TenantSession>& session : detached) {
    // Keys are pinned only by EnterLibrary scopes, which run under an
    // in-flight slot; a detached session has none and cannot gain one, so
    // a refusal here is a broken invariant, not a retry.
    const Status released = mc_->ReleaseLibrary(session->library);
    PS_CHECK(released.ok()) << "releasing detached tenant '" << session->name
                            << "': " << released.ToString();
  }
  // The scratch lived in the released pools — the pages are gone wholesale —
  // and the sessions die with `detached`.
  return detached.size();
}

void TenantRegistry::WarmTenants(const std::vector<std::string>& names) {
  std::vector<LibraryId> working_set;
  {
    std::lock_guard lock(mu_);
    working_set.reserve(names.size());
    for (const std::string& name : names) {
      const auto it = sessions_.find(name);
      if (it != sessions_.end() && !it->second->dead) {
        working_set.push_back(it->second->library);
      }
    }
  }
  if (!working_set.empty()) {
    // Hints are best-effort: released-in-between ids are skipped by
    // PrefaultWorkingSet itself, and errors never fail a request.
    (void)mc_->PrefaultWorkingSet(working_set);
  }
}

size_t TenantRegistry::live_sessions() const {
  std::lock_guard lock(mu_);
  return sessions_.size();
}

TenantRegistry::Stats TenantRegistry::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace server
}  // namespace pkrusafe
