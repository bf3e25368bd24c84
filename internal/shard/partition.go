package shard

import (
	"context"
	"fmt"

	"repro/internal/access"
	"repro/internal/live"
	"repro/internal/plan"
	"repro/internal/value"
)

// Partition is one hash partition of the database, wherever it lives:
// a *Local in this process, or internal/cluster's HTTP client to a
// Local on another machine. The coordinator (Engine) is written against
// this interface only, so where the partitions live is a choice of
// constructor — shard.New builds K local ones, cluster.New K remote
// ones — and never a second copy of the protocol.
//
// Versions are per partition and move in lockstep across the fleet:
// every committed write bumps every partition by one (an untouched
// partition commits an empty sub-delta), so the coordinator's version V
// names the same cut everywhere.
type Partition interface {
	// Status reports the partition's identity and committed state.
	Status(ctx context.Context) (Status, error)
	// Pin resolves committed version v to a read view. A view, once
	// pinned, serves that version for as long as it is held.
	Pin(v uint64) (View, error)
	// Load installs ix — already restricted to this partition's share,
	// indexed and validated by the coordinator — as version 0,
	// restarting any durable history. A remote partition receives it as
	// a checkpoint image and installs it without indexing it again.
	Load(ctx context.Context, ix *access.Indexed) error
	// Stage applies sub-delta d on top of committed version base without
	// publishing anything, replacing any previously staged transaction.
	Stage(ctx context.Context, txn string, base uint64, d *live.Delta) (*Staged, error)
	// MaxGroup is the largest group of constraint ci's post-delta index:
	// the staged one when txn touched it, the version-v one otherwise.
	MaxGroup(ctx context.Context, txn string, v uint64, ci int) (int, error)
	// Groups lists the post-delta groups of constraint ci (resolved as
	// for MaxGroup) under the given X-keys, or every group when all is
	// set. Empty groups are omitted.
	Groups(ctx context.Context, txn string, v uint64, ci int, keys []value.Key, all bool) ([]Group, error)
	// Commit publishes staged transaction txn as version v+1 and
	// returns the partition's new size. It is idempotent per txn.
	Commit(ctx context.Context, txn string, v uint64) (size int, err error)
	// Abort discards staged transaction txn; unknown ones are a no-op.
	Abort(ctx context.Context, txn string) error
	// Rollback rewinds the partition to committed version v — the repair
	// of a commit fanout that did not complete — and returns its size.
	Rollback(ctx context.Context, v uint64) (size int, err error)
}

// View is one partition pinned at one version.
type View interface {
	// Fetcher serves constraint ci's buckets at the pinned version, or
	// nil when there is no such constraint. A local view returns the
	// index itself; a remote view returns a plan.BatchFetcher that sends
	// a fetch step's keys in one RPC, gets each bucket back as its
	// projections' value.Keys, and reports its failure.
	Fetcher(ci int) plan.Fetcher
	// Indexed returns the partition at the pinned version, tuples and
	// indexes: a local view's own snapshot, or a remote view's decoded
	// checkpoint image of it.
	Indexed(ctx context.Context) (*access.Indexed, error)
	// Checkpoint persists the pinned version to the partition's durable
	// store; durable.ErrNotDurable when it has none. Checkpoints go through
	// a view because only a version the coordinator has published may be
	// persisted: a partition's own newest version can be one a commit
	// fanout is still — or was never — completing.
	Checkpoint(ctx context.Context) error
}

// Status is a partition's identity and committed state, checked when a
// coordinator attaches. (The json tags here and below are the answers'
// shape on internal/cluster's wire; keys travel as value.Key's text
// form.)
type Status struct {
	Shard   int    `json:"shard"`
	Shards  int    `json:"shards"`
	Version uint64 `json:"version"`
	Size    int    `json:"size"`
	// Catalog fingerprints the (schema, access schema) pair the
	// partition serves; see catalogHash.
	Catalog uint32 `json:"catalog"`
}

// Staged is the accounting of one staged sub-delta: sizes, net effect,
// and per constraint what the coordinator's global validation needs
// without another round trip in the common (aligned, |D| not shrunk)
// case.
type Staged struct {
	Size        int                `json:"size"`
	OldSize     int                `json:"old_size"`
	Inserted    int                `json:"inserted"`
	Deleted     int                `json:"deleted"`
	Constraints []StagedConstraint `json:"constraints"`
}

// StagedConstraint is one constraint's share of a Staged: whether the
// sub-delta touched its relation, the largest post-delta group among
// the keys this partition's inserts touched, and those keys (for the
// cross-partition measurement of constraints whose groups straddle
// partitions).
type StagedConstraint struct {
	Touched    bool        `json:"touched"`
	MaxInsert  int         `json:"max_insert,omitempty"`
	InsertKeys []value.Key `json:"insert_keys,omitempty"`
}

// Group is one index bucket by identity: its X-key and the keys of its
// distinct Y-projections. The coordinator unions Projs across
// partitions to measure a group split between them.
type Group struct {
	Key   value.Key   `json:"key"`
	Projs []value.Key `json:"projs"`
}

// Refusal is a partition's structured protocol-level rejection —
// version mismatch, unknown transaction, a version it no longer holds.
// The partition answered deliberately, so a Refusal is never retried.
// Status is the HTTP status the internal wire carries it under.
type Refusal struct {
	Shard   int
	Status  int
	Code    string
	Message string
}

func (e *Refusal) Error() string {
	return fmt.Sprintf("shard: partition %d: %s (%s)", e.Shard, e.Message, e.Code)
}

// ErrorCode carries the refusal's code into the API envelope (see
// internal/server's coded-error mapping).
func (e *Refusal) ErrorCode() string { return e.Code }
