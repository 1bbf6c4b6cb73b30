// Package storage is the record layer of PANDA's server side: the
// Store contract for released-location records and its in-process
// implementation, Sharded, which is the single-lock store at one shard.
// It sits below the analytics engine and the DB facade — it knows
// nothing about grids, policies, or HTTP — so persistence backends and
// query engines can both plug in against the same narrow surface.
//
// ShardFor is the package's one routing function: every layer that
// partitions records by user (Sharded's lock shards, the WAL's log
// stripes) routes through it, and Sharded exposes its partition
// (NumShards, ShardLen, ScanShard, InsertGrouped) so a cooperating
// durability layer can keep one log per shard without re-deriving — or
// disagreeing about — placement.
package storage
