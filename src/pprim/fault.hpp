#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/error.hpp"

namespace smp {

/// What an armed fault point throws when it fires.
enum class FaultKind {
  kBadAlloc,      ///< std::bad_alloc — simulates allocation failure
  kRuntimeError,  ///< std::runtime_error — simulates a logic fault
  kCrash,         ///< std::_Exit(137) — simulates kill -9 at the point (no
                  ///< destructors, no atexit, no buffered-IO flush), the
                  ///< primitive under the crash-point chaos harness
  kCancel,        ///< Error{kCancelled} — what a cancelled budget raises at a
                  ///< checkpoint, at a counted hit instead of a moment
};

/// Deterministic fault injection for tests.
///
/// The library is salted with named fault points — `fault_point("site")` —
/// at the allocator hook of Arena and at the find-min / connect / compact
/// steps of every parallel algorithm (both at the orchestration level and
/// *inside* barrier-synchronized regions, where a throw used to mean either
/// std::terminate or a team deadlocked at the barrier).  Tests arm a site,
/// run the kernel, and observe the failure surface as a catchable error.
///
/// Semantics: `arm(site, kind, skip)` makes the (skip+1)-th hit of `site`
/// throw, exactly once per arm — later hits pass through.  Firing exactly
/// once matters for the barrier tests: one team thread throws while its
/// siblings proceed to the barrier, exercising the poisoned-release path.
///
/// When nothing is armed, a fault point costs one relaxed atomic load.
class FaultInjector {
 public:
  static void arm(std::string_view site, FaultKind kind = FaultKind::kBadAlloc,
                  std::uint64_t skip = 0) {
    State& s = state();
    std::lock_guard<std::mutex> lk(s.mutex);
    for (auto& a : s.armed) {
      if (a->name == site) {
        a->kind = kind;
        a->remaining.store(static_cast<std::int64_t>(skip) + 1,
                           std::memory_order_relaxed);
        a->hits.store(0, std::memory_order_relaxed);
        s.any_armed.store(true, std::memory_order_relaxed);
        return;
      }
    }
    auto site_rec = std::make_unique<Site>();
    site_rec->name = std::string(site);
    site_rec->kind = kind;
    site_rec->remaining.store(static_cast<std::int64_t>(skip) + 1,
                              std::memory_order_relaxed);
    s.armed.push_back(std::move(site_rec));
    s.any_armed.store(true, std::memory_order_relaxed);
  }

  static void disarm_all() {
    State& s = state();
    std::lock_guard<std::mutex> lk(s.mutex);
    s.armed.clear();
    s.any_armed.store(false, std::memory_order_relaxed);
  }

  /// Hits recorded for `site` since it was armed (0 if never armed).
  static std::uint64_t hits(std::string_view site) {
    State& s = state();
    std::lock_guard<std::mutex> lk(s.mutex);
    for (const auto& a : s.armed) {
      if (a->name == site) return a->hits.load(std::memory_order_relaxed);
    }
    return 0;
  }

  /// The body of fault_point(); split so the disarmed fast path inlines.
  static void check(std::string_view site) {
    if (!state().any_armed.load(std::memory_order_relaxed)) return;
    check_slow(site);
  }

 private:
  struct Site {
    std::string name;
    FaultKind kind = FaultKind::kBadAlloc;
    std::atomic<std::int64_t> remaining{0};  ///< fires when this hits 0 exactly
    std::atomic<std::uint64_t> hits{0};
  };

  struct State {
    std::mutex mutex;
    std::vector<std::unique_ptr<Site>> armed;
    std::atomic<bool> any_armed{false};
  };

  static State& state() {
    static State s;
    return s;
  }

  static void check_slow(std::string_view site) {
    State& s = state();
    Site* found = nullptr;
    {
      std::lock_guard<std::mutex> lk(s.mutex);
      for (const auto& a : s.armed) {
        if (a->name == site) {
          found = a.get();
          break;
        }
      }
    }
    if (found == nullptr) return;
    found->hits.fetch_add(1, std::memory_order_relaxed);
    // fetch_sub returning exactly 1 marks the single firing hit; the counter
    // keeps falling so no later hit can observe 1 again.
    if (found->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    switch (found->kind) {
      case FaultKind::kBadAlloc:
        throw std::bad_alloc();
      case FaultKind::kRuntimeError:
        throw std::runtime_error("injected fault at " + found->name);
      case FaultKind::kCrash:
        std::_Exit(137);  // the same exit a SIGKILLed process reports
      case FaultKind::kCancel:
        throw Error(ErrorCode::kCancelled, "injected at " + found->name);
    }
  }
};

/// Named fault point; no-op (one relaxed load) unless a test armed `site`.
inline void fault_point(std::string_view site) { FaultInjector::check(site); }

}  // namespace smp
