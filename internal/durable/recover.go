package durable

import (
	"context"
	"fmt"

	"repro/internal/access"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/schema"
)

// Recover rebuilds the newest committed state no newer than maxVersion:
// the newest readable checkpoint at or below maxVersion, plus WAL
// replay of every committed record after it. Single-node engines pass
// NoLimit; the sharded coordinator passes the minimum cross-shard
// version so every shard recovers onto the same cut, and any WAL suffix
// past maxVersion — records from a cross-shard commit that never
// completed on every shard — is truncated so appends can resume at
// maxVersion+1.
//
// Replay drives each delta through live.Replay — in place, skipping
// both Violations and Stage's copy-on-write clones: the deltas were
// validated when first committed, replaying a prefix of committed
// deltas cannot reach a state that was never live, and the freshly
// decoded checkpoint has no other referents to isolate. A nil State
// (and nil error) means the directory holds no durable state at all —
// a fresh store.
//
// If the newest checkpoint is unreadable (truncated by an unlucky
// crash, bit rot), Recover falls back to the next-newest — the WAL is
// compacted only down to the OLDER retained checkpoint precisely so
// this fallback still has every record it needs.
func (s *Store) Recover(ctx context.Context, sc *schema.Schema, a *access.Schema, maxVersion uint64) (*State, error) {
	last, ok := s.LastVersion()
	if !ok {
		return nil, nil
	}
	if last > maxVersion {
		last = maxVersion
	}

	// Newest-first over checkpoints at or below the cut; remember the
	// first decode error in case no checkpoint works out.
	tr := obs.FromContext(ctx)
	csp := tr.Start("recover.checkpoint")
	var base *State
	var firstErr error
	vs := s.checkpointVersions()
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i] > maxVersion {
			continue
		}
		st, err := s.readCheckpoint(vs[i], sc, a)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		base = st
		break
	}
	if base != nil {
		csp.SetRows(int64(base.Instance.Size()))
	}
	csp.End()
	if base == nil {
		if firstErr != nil {
			return nil, fmt.Errorf("durable: no readable checkpoint: %w", firstErr)
		}
		// A WAL with no checkpoint at all: nothing to replay onto. This
		// only happens if a Load's base checkpoint was lost, which the
		// commit protocol never produces.
		return nil, fmt.Errorf("durable: WAL present but no checkpoint to replay onto")
	}

	rsp := tr.Start("recover.replay")
	deltas, err := s.records(sc, base.Version, last)
	if err != nil {
		rsp.End()
		return nil, err
	}
	cur := base.Indexed
	for i, d := range deltas {
		if err := live.Replay(ctx, d, cur); err != nil {
			rsp.End()
			return nil, fmt.Errorf("durable: replaying version %d: %w", base.Version+uint64(i)+1, err)
		}
	}
	rsp.SetRows(int64(len(deltas)))
	rsp.End()

	// Drop any diverged suffix past the cut so future appends at
	// last+1 line up with the recovered state.
	if err := s.TruncateAfter(last); err != nil {
		return nil, err
	}
	// The recovered instance publishes read-only; release the replay-time
	// dedup maps (a mutating Apply clones first and rebuilds on demand).
	cur.Instance.ReleaseDedup()
	return &State{Instance: cur.Instance, Indexed: cur, Version: last}, nil
}
