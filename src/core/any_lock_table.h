// Type-erased keyed lock namespaces: one runtime-selectable handle over each
// table flavor in src/locktable/ instantiated with any algorithm in
// src/locks/.
//
// Mirrors core/any_lock.h: AnyLock erases a single lock behind the pthread
// mutex shape; these interfaces erase a whole lock *namespace* behind a
// futex-style keyed shape, so the registry and the C API can hand out sharded
// tables by lock name exactly the way they hand out single mutexes.  Every
// flavor shares the AnyTable geometry, and one adapter template, TableAdapter,
// implements it for all of them.
#ifndef CNA_CORE_ANY_LOCK_TABLE_H_
#define CNA_CORE_ANY_LOCK_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "locks/lock_api.h"
#include "locktable/combining.h"
#include "locktable/lock_table.h"
#include "locktable/resizable_lock_table.h"
#include "locktable/rw_lock_table.h"

namespace cna::core {

// The geometry every keyed namespace reports.
class AnyTable {
 public:
  virtual ~AnyTable() = default;

  virtual std::size_t Stripes() const = 0;
  virtual std::size_t StripeOf(std::uint64_t key) const = 0;
  // Total shared lock state backing the namespace (the compactness claim).
  virtual std::size_t LockStateBytes() const = 0;
  virtual std::size_t PerStripeStateBytes() const = 0;
  virtual std::string Name() const = 0;
};

// Abstract keyed lock namespace.  Lock/Unlock pairs must balance per
// execution context; LockMany/UnlockMany must be passed identical key sets
// (they acquire and release the distinct underlying stripes in the
// deadlock-free sorted order).
class AnyLockTable : public AnyTable {
 public:
  virtual void Lock(std::uint64_t key) = 0;
  // Returns false when the stripe is busy *or* the algorithm has no try-lock.
  virtual bool TryLock(std::uint64_t key) = 0;
  virtual void Unlock(std::uint64_t key) = 0;
  virtual bool SupportsTryLock() const = 0;

  // Multi-key transaction surface: all distinct stripes of `keys` are locked
  // in ascending stripe order (released in descending order), so concurrent
  // multi-key callers cannot deadlock.  The release is checked: it verifies
  // every stripe is held before releasing any, so misuse throws without
  // half-releasing the transaction.
  virtual void LockMany(const std::uint64_t* keys, std::size_t count) = 0;
  virtual void UnlockMany(const std::uint64_t* keys, std::size_t count) = 0;
};

// Abstract adaptive keyed lock namespace: an AnyLockTable whose stripe count
// follows the measured contention.  TryLock may also fail spuriously while a
// stripe migrates; the geometry describes the *current* snapshot and is
// advisory under concurrent resizing.
class AnyResizableLockTable : public AnyLockTable {
 public:
  // Manual resize attempt (policy-clamped); false if busy or a no-op.
  virtual bool TryResize(std::size_t stripes) = 0;
  virtual locktable::ResizableStatsSummary Summary() const = 0;
};

// Abstract keyed reader-writer namespace.  Shared/exclusive acquisitions must
// balance per execution context and key stripe; Unlock(key) releases in
// whichever mode the stripe is held (pthread_rwlock_unlock semantics).
class AnyRwLockTable : public AnyTable {
 public:
  virtual void LockShared(std::uint64_t key) = 0;
  virtual bool TryLockShared(std::uint64_t key) = 0;
  virtual void UnlockShared(std::uint64_t key) = 0;

  virtual void LockExclusive(std::uint64_t key) = 0;
  virtual bool TryLockExclusive(std::uint64_t key) = 0;
  virtual void UnlockExclusive(std::uint64_t key) = 0;

  virtual void Unlock(std::uint64_t key) = 0;

  // Multi-key exclusive transaction, ascending-stripe deadlock-free order;
  // the release is checked as in AnyLockTable.
  virtual void LockMany(const std::uint64_t* keys, std::size_t count) = 0;
  virtual void UnlockMany(const std::uint64_t* keys, std::size_t count) = 0;
};

// Abstract keyed combining namespace.  Apply executes fn(ctx) under key's
// stripe -- possibly on another thread acting as combiner -- and returns
// after it ran exactly once.  Lock/Unlock open a plain critical section that
// coexists with Apply users (Unlock drains the publication list first).
// Closures cross the virtual (and C) boundary as a context pointer plus a
// function pointer, the only closure shape C can express.
class AnyCombiningTable : public AnyTable {
 public:
  virtual void Apply(std::uint64_t key, void (*fn)(void*), void* ctx) = 0;
  virtual void ApplyBatch(const std::uint64_t* keys, std::size_t count,
                          void (*fn)(void*, std::uint64_t), void* ctx) = 0;

  virtual void Lock(std::uint64_t key) = 0;
  virtual void Unlock(std::uint64_t key) = 0;

  virtual std::size_t CombiningBudget() const = 0;
  // Aggregate combining counters (zero when stats were not requested).
  virtual locktable::CombiningStatsSummary CombiningSummary() const = 0;
};

// Interface I over table T: the geometry, and the multi-key calls of the
// fixed tables, whose stripe list lives inline up to the guards' inline key
// count and on the heap beyond it.
template <typename I, typename T>
class TableAdapter : public I {
 public:
  template <typename Options>
  TableAdapter(std::string name, const Options& options)
      : table_(options), name_(std::move(name)) {}

  std::size_t Stripes() const final { return table_.stripes(); }
  std::size_t StripeOf(std::uint64_t key) const final {
    return table_.StripeOf(key);
  }
  std::size_t LockStateBytes() const final { return table_.LockStateBytes(); }
  std::size_t PerStripeStateBytes() const final {
    return T::LockType::kStateBytes;
  }
  std::string Name() const final { return name_; }

  T& table() { return table_; }

 protected:
  void LockKeys(const std::uint64_t* keys, std::size_t count) {
    constexpr std::size_t kInline = T::kInlineTxnKeys;
    if (count <= kInline) {
      std::size_t stripes[kInline];
      (void)table_.LockKeysInto(keys, count, stripes);
    } else {
      std::vector<std::size_t> stripes(count);
      (void)table_.LockKeysInto(keys, count, stripes.data());
    }
  }

  T table_;

 private:
  std::string name_;
};

// AnyLockTable (or AnyResizableLockTable, I) over a fixed or resizable table.
template <typename I, typename T>
class KeyedTableAdapter : public TableAdapter<I, T> {
  using L = typename T::LockType;

 public:
  using TableAdapter<I, T>::TableAdapter;

  void Lock(std::uint64_t key) override { this->table_.Lock(key); }
  bool TryLock(std::uint64_t key) override {
    if constexpr (locks::TryLockable<L>) {
      return this->table_.TryLock(key);
    } else {
      return false;
    }
  }
  void Unlock(std::uint64_t key) override { this->table_.Unlock(key); }
  bool SupportsTryLock() const override { return locks::TryLockable<L>; }
};

template <typename P, locks::Lockable L>
class LockTableAdapter final
    : public KeyedTableAdapter<AnyLockTable, locktable::LockTable<P, L>> {
 public:
  using KeyedTableAdapter<AnyLockTable,
                          locktable::LockTable<P, L>>::KeyedTableAdapter;

  void LockMany(const std::uint64_t* keys, std::size_t count) override {
    this->LockKeys(keys, count);
  }
  void UnlockMany(const std::uint64_t* keys, std::size_t count) override {
    this->table_.UnlockKeys(keys, count);
  }
};

template <typename P, locks::Lockable L>
class ResizableLockTableAdapter final
    : public KeyedTableAdapter<AnyResizableLockTable,
                               locktable::ResizableLockTable<P, L>> {
 public:
  using KeyedTableAdapter<
      AnyResizableLockTable,
      locktable::ResizableLockTable<P, L>>::KeyedTableAdapter;

  void LockMany(const std::uint64_t* keys, std::size_t count) override {
    this->table_.LockMany(keys, count);
  }
  void UnlockMany(const std::uint64_t* keys, std::size_t count) override {
    this->table_.UnlockMany(keys, count);
  }
  bool TryResize(std::size_t stripes) override {
    return this->table_.TryResize(stripes);
  }
  locktable::ResizableStatsSummary Summary() const override {
    return this->table_.Summary();
  }
};

template <typename P, locks::SharedLockable L>
class RwLockTableAdapter final
    : public TableAdapter<AnyRwLockTable, locktable::RwLockTable<P, L>> {
 public:
  using TableAdapter<AnyRwLockTable,
                     locktable::RwLockTable<P, L>>::TableAdapter;

  void LockShared(std::uint64_t key) override {
    this->table_.LockShared(key);
  }
  bool TryLockShared(std::uint64_t key) override {
    return this->table_.TryLockShared(key);
  }
  void UnlockShared(std::uint64_t key) override {
    this->table_.UnlockShared(key);
  }

  void LockExclusive(std::uint64_t key) override {
    this->table_.LockExclusive(key);
  }
  bool TryLockExclusive(std::uint64_t key) override {
    return this->table_.TryLockExclusive(key);
  }
  void UnlockExclusive(std::uint64_t key) override {
    this->table_.UnlockExclusive(key);
  }

  void Unlock(std::uint64_t key) override { this->table_.Unlock(key); }

  void LockMany(const std::uint64_t* keys, std::size_t count) override {
    this->LockKeys(keys, count);
  }
  void UnlockMany(const std::uint64_t* keys, std::size_t count) override {
    this->table_.UnlockKeys(keys, count);
  }
};

template <typename P, locks::TryLockable L>
class CombiningTableAdapter final
    : public TableAdapter<AnyCombiningTable, locktable::CombiningTable<P, L>> {
 public:
  using TableAdapter<AnyCombiningTable,
                     locktable::CombiningTable<P, L>>::TableAdapter;

  void Apply(std::uint64_t key, void (*fn)(void*), void* ctx) override {
    this->table_.Apply(key, [fn, ctx] { fn(ctx); });
  }
  void ApplyBatch(const std::uint64_t* keys, std::size_t count,
                  void (*fn)(void*, std::uint64_t), void* ctx) override {
    this->table_.ApplyBatch(keys, count,
                            [fn, ctx](std::uint64_t key) { fn(ctx, key); });
  }

  void Lock(std::uint64_t key) override { this->table_.Lock(key); }
  void Unlock(std::uint64_t key) override { this->table_.Unlock(key); }

  std::size_t CombiningBudget() const override {
    return this->table_.combining_budget();
  }
  locktable::CombiningStatsSummary CombiningSummary() const override {
    return this->table_.CombiningSummary();
  }
};

}  // namespace cna::core

#endif  // CNA_CORE_ANY_LOCK_TABLE_H_
