#ifndef SLIM_TRIM_EPOCH_H_
#define SLIM_TRIM_EPOCH_H_

/// \file epoch.h
/// \brief Epoch-based reclamation for the concurrent TripleStore.
///
/// The triple store (triple_store.h) lets readers run entirely lock-free
/// against structures that writers keep mutating. The safety protocol is
/// classic epoch-based reclamation (EBR), specified in DESIGN.md §10:
///
///  - A global **epoch** counter advances once per committed writer batch
///    (`Publish`). Every record carries the epoch it was born and the epoch
///    it died; a reader pinned at snapshot epoch S sees exactly the records
///    with `birth <= S < death`.
///  - A reader **pins** the current epoch on entry (`Pin`/`Unpin`, nestable
///    per thread so joins that issue nested selections share one snapshot)
///    by publishing it into a reader-slot table.
///  - Writers never free replaced structures in place; they **retire** them
///    with a `safe_epoch` (`Retire`). `Reclaim` frees a retired object only
///    once every pinned reader's epoch has advanced to `safe_epoch` or
///    beyond — "retired postings are reclaimed when the oldest pinned epoch
///    advances".
///
/// Memory-ordering contract (what makes this TSan-clean): the epoch
/// counter, reader slots, and every data-structure pointer the readers
/// chase are `seq_cst`. A reader that pins S has, by the seq_cst total
/// order, already observed every pointer published at or before S, and a
/// reclaimer that fails to observe a reader's pin is guaranteed — same
/// total order — that the reader's subsequent pointer loads observe the
/// *replacement*, never the retired object. Per-record birth/death stamps
/// ride on those synchronizing operations and can stay relaxed.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>

#include "util/instrumented_mutex.h"
#include "util/thread_annotations.h"

namespace slim::trim {

/// \brief One global epoch domain: counter, reader-slot table, limbo list.
///
/// A TripleStore owns exactly one EpochManager, so one pinned epoch yields
/// one consistent snapshot of its record log and indexes.
class EpochManager {
 public:
  /// Death epoch of a live record: no snapshot ever reaches it.
  static constexpr uint64_t kNeverDies = UINT64_MAX;
  /// Fixed reader-slot table; threads beyond this spill to a mutex-guarded
  /// overflow list (correct, merely slower to scan).
  static constexpr size_t kReaderSlots = 64;

  EpochManager() = default;
  ~EpochManager();
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// The latest committed epoch. Epochs start at 1 so that 0 can mean "slot
  /// free" in the reader table.
  uint64_t current() const { return current_.load(std::memory_order_seq_cst); }

  /// Commits `epoch` (must be `current() + 1`; the caller is the single
  /// serialized writer). Everything stamped with `epoch` becomes visible to
  /// readers that pin afterwards, atomically.
  void Publish(uint64_t epoch) {
    current_.store(epoch, std::memory_order_seq_cst);
  }

  /// \name Reader pinning (nestable per thread)
  /// Pin() returns this thread's snapshot epoch: the current epoch on the
  /// outermost call, the already-pinned epoch on nested calls. Every Pin
  /// must be matched by an Unpin on the same thread.
  /// @{
  uint64_t Pin();
  void Unpin();
  /// @}

  /// Smallest epoch any reader is pinned at; `current() + 1` when no reader
  /// is pinned (everything retired so far is reclaimable).
  uint64_t MinPinned() const;

  /// Hands an unreachable object to the limbo list. `reclaim` runs once
  /// `MinPinned() >= safe_epoch`. Callers pass
  ///  - `death_epoch` for record payloads (a reader pinned at or past the
  ///    death epoch can no longer see the record), and
  ///  - `current() + 1` for replaced structures (spines, key hash
  ///    indexes, store guts): a reader pinned at the current epoch may
  ///    already hold the old pointer, so the epoch must advance past it
  ///    first.
  /// Safe epochs are monotone in retirement order, so FIFO reclamation
  /// preserves payload-before-container ordering.
  void Retire(uint64_t safe_epoch, std::function<void()> reclaim);

  /// Runs every limbo entry whose safe epoch has been reached, in FIFO
  /// order, and returns how many were reclaimed.
  size_t Reclaim();

  /// Point-in-time introspection for `slim.store.epoch.*` gauges.
  struct Stats {
    uint64_t current = 0;     ///< Latest committed epoch.
    uint64_t oldest_pin = 0;  ///< Oldest pinned epoch; 0 when none pinned.
    uint64_t lag = 0;         ///< current - oldest_pin (0 when none pinned).
    uint64_t retired = 0;     ///< Objects ever handed to limbo.
    uint64_t reclaimed = 0;   ///< Objects freed so far.
    uint64_t limbo = 0;       ///< Objects still awaiting reclamation.
  };
  Stats GetStats() const;

 private:
  /// Oldest pin across slots and overflow, or kNeverDies when none.
  uint64_t OldestPin() const;
  /// Removes one overflow pin: the entry matching `epoch`, or — when the
  /// match is gone or `epoch` is kNeverDies (untracked pin) — the largest
  /// entry, which keeps MinPinned() a safe underestimate.
  void ReleaseOverflow(uint64_t epoch);

  std::atomic<uint64_t> current_{1};

  /// Reader-slot table: 0 = free, otherwise the pinned epoch. Padded so
  /// concurrent pin/unpin on different slots never share a cache line.
  struct alignas(64) ReaderSlot {
    std::atomic<uint64_t> epoch{0};
  };
  // slim-lint: allow(unguarded) -- per-slot atomics; lock-free pin path
  ReaderSlot slots_[kReaderSlots];

  /// Overflow pins for threads that found no free slot.
  mutable util::InstrumentedMutex overflow_mu_{"trim.store.epoch.overflow"};
  std::atomic<uint64_t> overflow_count_{0};
  std::deque<uint64_t> overflow_ GUARDED_BY(overflow_mu_);

  /// Limbo list of retired-but-not-yet-freed objects. Closures run under
  /// the mutex so payload-clearing and container-freeing entries for the
  /// same memory cannot interleave across threads.
  struct Retired {
    uint64_t safe_epoch;
    std::function<void()> reclaim;
  };
  mutable util::InstrumentedMutex limbo_mu_{"trim.store.epoch.limbo"};
  std::deque<Retired> limbo_ GUARDED_BY(limbo_mu_);
  std::atomic<uint64_t> retired_total_{0};
  std::atomic<uint64_t> reclaimed_total_{0};
  std::atomic<uint64_t> limbo_size_{0};
};

}  // namespace slim::trim

#endif  // SLIM_TRIM_EPOCH_H_
