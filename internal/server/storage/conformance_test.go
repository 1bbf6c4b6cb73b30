package storage_test

import (
	"testing"

	"github.com/pglp/panda/internal/server/storage"
	"github.com/pglp/panda/internal/server/storage/storagetest"
)

// The in-memory store passes the shared Store conformance battery
// (storagetest) at several shards and at one. The durable backend runs
// the same battery from its own package.

func TestShardedStoreConformance(t *testing.T) {
	storagetest.TestStore(t, func(t *testing.T) storage.Store {
		return storage.NewShardedStore(4)
	})
}

// A single-shard sharded store must behave identically — the shard
// fan-out is a lock-granularity choice, never a semantics choice.
func TestShardedSingleShardConformance(t *testing.T) {
	storagetest.TestStore(t, func(t *testing.T) storage.Store {
		return storage.NewShardedStore(1)
	})
}
