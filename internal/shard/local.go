package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/access"
	"repro/internal/durable"
	"repro/internal/index"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/value"
)

// localSnap is one committed version of a local partition. It is its
// own View: the indexes are the fetchers.
type localSnap struct {
	l       *Local
	ix      *access.Indexed
	size    int
	version uint64
}

func (sn *localSnap) Fetcher(ci int) plan.Fetcher {
	if ci < 0 || ci >= len(sn.ix.Access.Constraints) {
		return nil
	}
	return sn.ix.Index(ci)
}

func (sn *localSnap) Indexed(context.Context) (*access.Indexed, error) { return sn.ix, nil }

// Checkpoint persists this version and compacts the WAL behind it. The
// snapshot is immutable, so commits proceed concurrently.
func (sn *localSnap) Checkpoint(context.Context) error {
	sn.l.mu.Lock()
	st := sn.l.store
	sn.l.mu.Unlock()
	if st == nil {
		return durable.ErrNotDurable
	}
	return st.WriteCheckpoint(sn.l.schema, &durable.State{Instance: sn.ix.Instance, Indexed: sn.ix, Version: sn.version})
}

// stagedTxn is a staged-but-unpublished sub-delta: live's copy-on-write
// Staged (nil when the sub-delta was empty — the partition still commits
// a version bump so the fleet's versions stay in lockstep) plus the
// delta itself for the WAL record at commit.
type stagedTxn struct {
	txn   string
	base  uint64
	st    *live.Staged
	delta *live.Delta
}

// Local is the Partition that lives in this process: partition id of k,
// held as immutable snapshots — the current version and the one before
// it — one staged transaction, an idempotent commit and, optionally,
// its own durable store. The in-process engine calls it directly;
// internal/cluster serves the same value over HTTP.
//
// Only the previous version is retained, because that is all the commit
// protocol can roll back to: a partition gets at most one version ahead
// of its fleet. Readers are not served from retention — a pinned View
// holds its snapshot for as long as the reader holds the View, however
// many commits follow. (A server of remote readers, who name a version
// on every RPC instead of holding a View, keeps the Views for them; see
// internal/cluster's handler.) Whoever plans over the partition reads
// its |D| and version from Status.
type Local struct {
	schema  *schema.Schema
	access  *access.Schema
	id, k   int
	catalog uint32 // durable.CatalogHash(schema, access)

	// cur is the current committed snapshot (nil before data arrives).
	// mu serializes writes — load, stage, commit, rollback — and guards
	// the fields below; reads go through cur, or prev under mu.
	cur    atomic.Pointer[localSnap]
	mu     sync.Mutex
	prev   *localSnap // the version before cur: the rollback target
	staged *stagedTxn
	// lastTxn/lastSize make commit idempotent: a coordinator retries
	// commits through transient failures, and a duplicate must answer
	// the original result instead of failing on the missing staged txn.
	lastTxn  string
	lastSize int
	store    *durable.Store
	commits  atomic.Uint64
}

var _ Partition = (*Local)(nil)

// NewLocal builds partition id of k over the shared catalog.
func NewLocal(s *schema.Schema, a *access.Schema, id, k int) (*Local, error) {
	if id < 0 || id >= k {
		return nil, fmt.Errorf("shard: partition id %d out of range [0,%d)", id, k)
	}
	return &Local{schema: s, access: a, id: id, k: k, catalog: durable.CatalogHash(s, a)}, nil
}

func (l *Local) refuse(status int, code, format string, args ...any) error {
	return &Refusal{Shard: l.id, Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

func (l *Local) errNoInstance() error {
	return fmt.Errorf("shard: partition %d has no instance loaded", l.id)
}

// Commits counts the transactions this partition has committed.
func (l *Local) Commits() uint64 { return l.commits.Load() }

// install makes sn the only known version. Callers hold mu.
func (l *Local) install(sn *localSnap) {
	l.prev = nil
	l.staged = nil
	l.lastTxn = ""
	l.cur.Store(sn)
}

func (l *Local) Status(context.Context) (Status, error) {
	st := Status{Shard: l.id, Shards: l.k, Catalog: l.catalog}
	if sn := l.cur.Load(); sn != nil {
		st.Version, st.Size = sn.version, sn.size
	}
	return st, nil
}

// Pin resolves v to the current snapshot or the previous one. A version
// the partition no longer holds — never committed here, or superseded —
// is a stale_version refusal.
func (l *Local) Pin(v uint64) (View, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if sn := l.held(v); sn != nil {
		return sn, nil
	}
	return nil, l.refuse(410, "stale_version", "version %d is not available on shard %d", v, l.id)
}

// held returns the retained snapshot of version v, or nil. Callers hold
// mu.
func (l *Local) held(v uint64) *localSnap {
	if sn := l.cur.Load(); sn != nil && sn.version == v {
		return sn
	}
	if l.prev != nil && l.prev.version == v {
		return l.prev
	}
	return nil
}

// Load installs ix at version 0, resetting any durable history (a
// reload starts a new timeline). Cardinality bounds are NOT checked
// here — they hold at the global |D|, which only the coordinator sees.
func (l *Local) Load(_ context.Context, ix *access.Indexed) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.store != nil {
		// The base checkpoint is on disk before the snapshot publishes,
		// so a crash right after Load still recovers the loaded data.
		if err := l.store.Reset(); err != nil {
			return err
		}
		base := &durable.State{Instance: ix.Instance, Indexed: ix, Version: 0}
		if err := l.store.WriteCheckpoint(l.schema, base); err != nil {
			return err
		}
	}
	// The instance publishes read-only; release its load-time dedup maps
	// (writers clone and rebuild).
	ix.Instance.ReleaseDedup()
	l.install(&localSnap{l: l, ix: ix, size: ix.Instance.Size()})
	return nil
}

// Stage stages d on top of committed version base. Any previously
// staged transaction is discarded — the coordinator serializes writes,
// so an older one can only be the leftover of an aborted attempt. If
// the partition sits exactly one version AHEAD of base, a commit fanout
// died after reaching it but before the coordinator published; that
// write was reported failed, so the partition self-heals by rolling
// back to base — from memory or, restarted since, its durable store —
// before staging.
func (l *Local) Stage(ctx context.Context, txn string, base uint64, d *live.Delta) (*Staged, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	sn := l.cur.Load()
	if sn == nil {
		return nil, l.errNoInstance()
	}
	if sn.version == base+1 {
		if err := l.rollbackLocked(ctx, base); err != nil {
			return nil, err
		}
		sn = l.cur.Load()
	}
	if sn.version != base {
		return nil, l.refuse(409, "version_mismatch", "stage base %d, partition at version %d", base, sn.version)
	}
	// The fleet has moved on to base: nothing can roll back past it.
	l.prev = nil
	tx := &stagedTxn{txn: txn, base: base, delta: d}
	res := &Staged{Size: sn.size, OldSize: sn.size, Constraints: make([]StagedConstraint, len(l.access.Constraints))}
	l.staged = nil
	if d.Len() > 0 {
		st, err := live.Stage(ctx, d, sn.ix)
		if err != nil {
			return nil, err
		}
		tx.st = st
		res.Size, res.OldSize = st.Size(), st.OldSize()
		res.Inserted, res.Deleted = st.Inserted(), st.Deleted()
		for ci := range res.Constraints {
			if !st.Touched(ci) {
				continue
			}
			sc := &res.Constraints[ci]
			sc.Touched = true
			sc.InsertKeys = st.InsertKeys(ci)
			idx := st.Index(ci)
			for _, k := range sc.InsertKeys {
				if g := idx.FetchKey(k).Len(); g > sc.MaxInsert {
					sc.MaxInsert = g
				}
			}
		}
	}
	l.staged = tx
	return res, nil
}

// postIndex is the post-delta index for constraint ci: the staged clone
// when transaction txn touched it, the committed version-v index
// otherwise. Callers hold mu.
func (l *Local) postIndex(txn string, v uint64, ci int) (*index.Index, error) {
	if ci < 0 || ci >= len(l.access.Constraints) {
		return nil, l.refuse(400, "bad_request", "no constraint %d", ci)
	}
	if tx := l.staged; tx != nil && tx.txn == txn {
		if tx.base != v {
			return nil, l.refuse(409, "version_mismatch", "transaction %q staged on version %d, asked at %d", txn, tx.base, v)
		}
		if tx.st != nil && tx.st.Touched(ci) {
			return tx.st.Index(ci), nil
		}
	}
	if sn := l.held(v); sn != nil {
		return sn.ix.Index(ci), nil
	}
	return nil, l.refuse(410, "stale_version", "version %d is not available on shard %d", v, l.id)
}

func (l *Local) MaxGroup(_ context.Context, txn string, v uint64, ci int) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx, err := l.postIndex(txn, v, ci)
	if err != nil {
		return 0, err
	}
	return idx.MaxGroup(), nil
}

func (l *Local) Groups(_ context.Context, txn string, v uint64, ci int, keys []value.Key, all bool) ([]Group, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx, err := l.postIndex(txn, v, ci)
	if err != nil {
		return nil, err
	}
	return groupsOf(idx, keys, all), nil
}

// groupsOf lists idx's nonempty groups under keys (every group when all
// is set) with the keys of their projections.
func groupsOf(idx *index.Index, keys []value.Key, all bool) []Group {
	var out []Group
	add := func(k value.Key, b index.Bucket) {
		if b.Len() > 0 {
			out = append(out, Group{Key: k, Projs: b.Keys()})
		}
	}
	if all {
		idx.Buckets(func(k value.Key, b index.Bucket) bool {
			add(k, b)
			return true
		})
		return out
	}
	for _, k := range keys {
		add(k, idx.FetchKey(k))
	}
	return out
}

// Commit publishes staged transaction txn on top of version v. The WAL
// record (empty deltas included, so versions stay in lockstep) is
// appended and fsynced BEFORE the snapshot publishes: by the time a
// reader can see version v+1 it survives kill -9.
func (l *Local) Commit(ctx context.Context, txn string, v uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lastTxn == txn {
		return l.lastSize, nil
	}
	tx := l.staged
	if tx == nil || tx.txn != txn {
		return 0, l.refuse(404, "unknown_txn", "commit of unknown transaction %q", txn)
	}
	sn := l.cur.Load()
	if sn.version != v || tx.base != v {
		return 0, l.refuse(409, "version_mismatch", "commit at version %d, partition at %d (staged base %d)", v, sn.version, tx.base)
	}
	l.staged = nil
	next := &localSnap{l: l, ix: sn.ix, size: sn.size, version: v + 1}
	if tx.st != nil {
		r, err := tx.st.Commit()
		if err != nil {
			return 0, err
		}
		next.ix, next.size = r.Indexed, tx.st.Size()
	}
	if l.store != nil {
		wsp := obs.FromContext(ctx).Start("wal.append+fsync")
		err := l.store.AppendDelta(v+1, tx.delta)
		wsp.SetRows(int64(tx.delta.Len()))
		wsp.End()
		if err != nil {
			return 0, err
		}
	}
	l.prev = sn
	l.lastTxn, l.lastSize = txn, next.size
	l.commits.Add(1)
	l.cur.Store(next)
	return next.size, nil
}

func (l *Local) Abort(_ context.Context, txn string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.staged != nil && l.staged.txn == txn {
		l.staged = nil
	}
	return nil
}

func (l *Local) Rollback(ctx context.Context, v uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.rollbackLocked(ctx, v); err != nil {
		return 0, err
	}
	return l.cur.Load().size, nil
}

// rollbackLocked rewinds to committed version v: to the retained
// snapshot when v is the previous version, otherwise — a partition restarted since v+1 holds only
// what it recovered — by re-recovering from the durable store up to v.
// Either way the store's diverged suffix is truncated, so the next
// commit appends at v+1.
func (l *Local) rollbackLocked(ctx context.Context, v uint64) error {
	sn := l.cur.Load()
	if sn == nil {
		return l.errNoInstance()
	}
	if sn.version == v {
		return nil
	}
	target, why := l.held(v), "not retained"
	if target == nil && l.store != nil && v < sn.version {
		st, err := l.store.Recover(ctx, l.schema, l.access, v)
		switch {
		case err != nil:
			why = "not retained, and not recoverable from the durable store: " + err.Error()
		case st != nil && st.Version == v:
			target = &localSnap{l: l, ix: st.Indexed, size: st.Instance.Size(), version: v}
		}
	}
	if target == nil {
		return l.refuse(409, "version_gone", "cannot roll back to version %d (at %d, %s)", v, sn.version, why)
	}
	if l.store != nil {
		if err := l.store.TruncateAfter(v); err != nil {
			return err
		}
	}
	l.install(target)
	return nil
}

// Durable attaches a durability directory: WAL + checkpoints for this
// partition. State already in dir is recovered to its newest committed
// version and published (restored == true); the coordinator reconciles
// any cross-partition version skew when it attaches. Call once, before
// serving.
func (l *Local) Durable(ctx context.Context, dir string, hook durable.Hook) (restored bool, err error) {
	st, err := durable.Open(dir, hook)
	if err != nil {
		return false, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.store != nil {
		st.Close()
		return false, fmt.Errorf("shard: partition %d already has a durable store", l.id)
	}
	state, err := st.Recover(ctx, l.schema, l.access, durable.NoLimit)
	if err != nil {
		st.Close()
		return false, err
	}
	l.store = st
	if state == nil {
		return false, nil
	}
	l.install(&localSnap{l: l, ix: state.Indexed, size: state.Instance.Size(), version: state.Version})
	return true, nil
}

// Checkpoint persists the partition's own current version and returns
// it — a partition server's admin surface. A coordinator checkpoints
// the Views it has published instead (see View.Checkpoint).
func (l *Local) Checkpoint(ctx context.Context) (uint64, error) {
	sn := l.cur.Load()
	if sn == nil {
		return 0, l.errNoInstance()
	}
	return sn.version, sn.Checkpoint(ctx)
}

// CloseDurable detaches and closes the durable store. Safe to call when
// durability was never enabled.
func (l *Local) CloseDurable() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.store == nil {
		return nil
	}
	err := l.store.Close()
	l.store = nil
	return err
}
