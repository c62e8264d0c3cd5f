#include "txn/lock_manager.h"

#include <algorithm>
#include <optional>

#include "util/deadline.h"

namespace tendax {

const char* LockModeName(LockMode mode) {
  switch (mode) {
    case LockMode::kIS:
      return "IS";
    case LockMode::kIX:
      return "IX";
    case LockMode::kS:
      return "S";
    case LockMode::kX:
      return "X";
  }
  return "?";
}

bool LockCompatible(LockMode held, LockMode requested) {
  static constexpr bool kMatrix[4][4] = {
      // requested:  IS     IX     S      X        held:
      {true, true, true, false},   // IS
      {true, true, false, false},  // IX
      {true, false, true, false},  // S
      {false, false, false, false},  // X
  };
  return kMatrix[static_cast<int>(held)][static_cast<int>(requested)];
}

bool LockCovers(LockMode held, LockMode requested) {
  if (held == requested) return true;
  switch (held) {
    case LockMode::kX:
      return true;
    case LockMode::kS:
      return requested == LockMode::kIS;
    case LockMode::kIX:
      return requested == LockMode::kIS;
    case LockMode::kIS:
      return false;
  }
  return false;
}

LockMode LockSupremum(LockMode a, LockMode b) {
  if (LockCovers(a, b)) return a;
  if (LockCovers(b, a)) return b;
  // Remaining incomparable pairs: {IX, S} -> X (no SIX mode).
  return LockMode::kX;
}

Status LockManager::Acquire(TxnId txn, uint64_t resource, LockMode mode) {
  MutexLock lock(mu_);
  ResourceState& state = resources_[resource];

  // Upgrade path: merge with any mode this transaction already holds.
  LockMode target = mode;
  for (const Grant& g : state.grants) {
    if (g.txn == txn) {
      if (LockCovers(g.mode, mode)) {
        m_acquisitions_->Add();
        return Status::OK();
      }
      target = LockSupremum(g.mode, mode);
      break;
    }
  }

  // Deadline propagation: the wait is bounded by min(lock_timeout, the
  // request's remaining budget). A request that would miss its deadline
  // anyway gives the lock back to useful work early and surfaces the typed
  // kDeadlineExceeded instead of a generic conflict.
  auto deadline = std::chrono::steady_clock::now() + timeout_;
  bool deadline_is_request = false;
  if (RequestDeadline::Armed() && RequestDeadline::Deadline() < deadline) {
    deadline = RequestDeadline::Deadline();
    deadline_is_request = true;
  }
  bool waited = false;
  // Armed at the first wait; RAII records the time blocked on every exit
  // below (deadlock victim, timeout, and eventual grant alike).
  std::optional<ScopedTimer> wait_timer;
  while (!Grantable(state, txn, target)) {
    std::vector<TxnId> blockers = Blockers(state, txn, target);
    if (WouldDeadlock(txn, blockers)) {
      m_deadlocks_->Add();
      if (waited) {
        wait_for_.erase(txn.value);
        --state.waiters;
      }
      return Status::Deadlock("deadlock acquiring " +
                              std::string(LockModeName(target)) +
                              " on resource " + std::to_string(resource));
    }
    auto& edges = wait_for_[txn.value];
    edges.clear();
    for (TxnId b : blockers) edges.insert(b.value);
    if (!waited) {
      waited = true;
      ++state.waiters;
      m_waits_->Add();
      wait_timer.emplace(m_wait_micros_);
    }
    if (cv_.WaitUntil(lock, deadline) == std::cv_status::timeout &&
        !Grantable(state, txn, target)) {
      wait_for_.erase(txn.value);
      --state.waiters;
      if (deadline_is_request) {
        m_deadline_exceeded_->Add();
        return Status::DeadlineExceeded(
            "request deadline expired waiting for resource " +
            std::to_string(resource));
      }
      m_timeouts_->Add();
      return Status::Conflict("lock wait timeout on resource " +
                              std::to_string(resource));
    }
  }
  if (waited) {
    wait_for_.erase(txn.value);
    --state.waiters;
  }

  bool upgraded = false;
  for (Grant& g : state.grants) {
    if (g.txn == txn) {
      g.mode = target;
      upgraded = true;
      break;
    }
  }
  if (!upgraded) state.grants.push_back(Grant{txn, target});
  held_by_txn_[txn.value].insert(resource);
  m_acquisitions_->Add();
  return Status::OK();
}

void LockManager::ReleaseAll(TxnId txn) {
  MutexLock lock(mu_);
  auto it = held_by_txn_.find(txn.value);
  if (it != held_by_txn_.end()) {
    for (uint64_t resource : it->second) {
      auto rit = resources_.find(resource);
      if (rit == resources_.end()) continue;
      auto& grants = rit->second.grants;
      grants.erase(std::remove_if(grants.begin(), grants.end(),
                                  [&](const Grant& g) { return g.txn == txn; }),
                   grants.end());
      if (grants.empty() && rit->second.waiters == 0) {
        resources_.erase(rit);
      }
    }
    held_by_txn_.erase(it);
  }
  wait_for_.erase(txn.value);
  cv_.NotifyAll();
}

size_t LockManager::LockedResourceCount() const {
  MutexLock lock(mu_);
  size_t n = 0;
  for (const auto& [res, state] : resources_) {
    if (!state.grants.empty()) ++n;
  }
  return n;
}

LockManagerStats LockManager::stats() const {
  LockManagerStats out;
  out.acquisitions = m_acquisitions_->Value();
  out.waits = m_waits_->Value();
  out.deadlocks = m_deadlocks_->Value();
  out.timeouts = m_timeouts_->Value();
  out.deadline_exceeded = m_deadline_exceeded_->Value();
  return out;
}

bool LockManager::Grantable(const ResourceState& state, TxnId txn,
                            LockMode mode) {
  for (const Grant& g : state.grants) {
    if (g.txn == txn) continue;
    if (!LockCompatible(g.mode, mode)) return false;
  }
  return true;
}

std::vector<TxnId> LockManager::Blockers(const ResourceState& state, TxnId txn,
                                         LockMode mode) {
  std::vector<TxnId> blockers;
  for (const Grant& g : state.grants) {
    if (g.txn == txn) continue;
    if (!LockCompatible(g.mode, mode)) blockers.push_back(g.txn);
  }
  return blockers;
}

bool LockManager::WouldDeadlock(TxnId waiter,
                                const std::vector<TxnId>& blockers) const {
  // DFS from each blocker through the wait-for graph looking for `waiter`.
  std::unordered_set<uint64_t> visited;
  std::vector<uint64_t> stack;
  for (TxnId b : blockers) stack.push_back(b.value);
  while (!stack.empty()) {
    uint64_t current = stack.back();
    stack.pop_back();
    if (current == waiter.value) return true;
    if (!visited.insert(current).second) continue;
    auto it = wait_for_.find(current);
    if (it == wait_for_.end()) continue;
    for (uint64_t next : it->second) stack.push_back(next);
  }
  return false;
}

}  // namespace tendax
