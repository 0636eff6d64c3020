// The reader-writer lock-table interface, AnyRwLockTable, lives with the
// other keyed namespaces in any_lock_table.h; this header names it for
// includers that want only the rw surface.
#ifndef CNA_CORE_ANY_RWLOCK_TABLE_H_
#define CNA_CORE_ANY_RWLOCK_TABLE_H_

#include "core/any_lock_table.h"

#endif  // CNA_CORE_ANY_RWLOCK_TABLE_H_
