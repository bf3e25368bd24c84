// Package live implements the engine's update subsystem: deltas of
// inserts and deletes applied with snapshot isolation and incremental
// index maintenance.
//
// A Delta batches tuple-level inserts and deletes per relation. Apply
// materializes a NEW instance/index pair from an existing one without
// mutating it: touched relations and their indices are cloned
// copy-on-write and maintained incrementally (index.Insert/Delete), while
// untouched ones are shared. Readers of the old pair therefore keep a
// consistent pre-delta view for as long as they hold it — the engine
// publishes the new pair with an atomic pointer swap, never stopping the
// world.
//
// Apply also validates the delta against the access schema: a batch whose
// net effect would make some group |D_Y(X = ā)| exceed its constraint's
// cardinality bound is rejected with the full violation list and NO
// visible effect. This keeps D |= A an invariant of the serving engine,
// which is what makes every cached bounded plan remain valid across
// updates (the paper's bounds are data-independent given A and, for
// general-form constraints, the |D| size hint).
package live

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/value"
)

// Delta is a batch of tuple-level updates, grouped per relation. The zero
// Delta is not usable; build one with NewDelta. A Delta is not safe for
// concurrent mutation.
type Delta struct {
	schema *schema.Schema
	rels   map[string]*relDelta
	order  []string // relations in first-touch order, for determinism
}

type relDelta struct {
	inserts []data.Tuple
	deletes []data.Tuple
}

// NewDelta returns an empty delta over s. Insert and Delete validate
// relation names and arities against s immediately, so a malformed batch
// fails at build time, not apply time.
func NewDelta(s *schema.Schema) *Delta {
	return &Delta{schema: s, rels: make(map[string]*relDelta)}
}

// Insert adds an insertion of (vals...) into rel to the batch.
func (d *Delta) Insert(rel string, vals ...value.Value) error { return d.add(rel, vals, true) }

// Delete adds a deletion of (vals...) from rel to the batch.
func (d *Delta) Delete(rel string, vals ...value.Value) error { return d.add(rel, vals, false) }

// add batches one operation on a copy of vals, once rel and the arity of
// vals check out against the schema.
func (d *Delta) add(rel string, vals []value.Value, insert bool) error {
	rs, ok := d.schema.Relation(rel)
	switch {
	case !ok:
		return fmt.Errorf("live: delta references unknown relation %s", rel)
	case len(vals) != rs.Arity():
		return fmt.Errorf("live: relation %s expects arity %d, got %d", rel, rs.Arity(), len(vals))
	}
	rd := d.rels[rel]
	if rd == nil {
		rd = &relDelta{}
		d.rels[rel] = rd
		d.order = append(d.order, rel)
	}
	if t := data.Tuple(vals).Clone(); insert {
		rd.inserts = append(rd.inserts, t)
	} else {
		rd.deletes = append(rd.deletes, t)
	}
	return nil
}

// MustInsert is Insert that panics on error; for fixtures and generators
// whose schemas are correct by construction.
func (d *Delta) MustInsert(rel string, vals ...value.Value) {
	if err := d.Insert(rel, vals...); err != nil {
		panic(err)
	}
}

// MustDelete is Delete that panics on error.
func (d *Delta) MustDelete(rel string, vals ...value.Value) {
	if err := d.Delete(rel, vals...); err != nil {
		panic(err)
	}
}

// Len returns the total number of batched operations (inserts + deletes).
func (d *Delta) Len() int {
	n := 0
	for _, rd := range d.rels {
		n += len(rd.inserts) + len(rd.deletes)
	}
	return n
}

// Relations returns the names of the touched relations, sorted.
func (d *Delta) Relations() []string {
	out := append([]string(nil), d.order...)
	sort.Strings(out)
	return out
}

// Each visits every batched operation in apply order — relations as
// Relations() lists them, deletes before inserts within a relation —
// calling f with the relation name, whether the op is an insert, and
// the tuple. It stops at the first error f returns. The tuple is the
// delta's own copy; callers must not mutate it. Each is how a
// coordinator splits a batch into per-shard sub-deltas without reaching
// into the delta's internals.
func (d *Delta) Each(f func(rel string, insert bool, t data.Tuple) error) error {
	for _, name := range d.Relations() {
		for op, ts := range [2][]data.Tuple{d.rels[name].deletes, d.rels[name].inserts} {
			for _, t := range ts {
				if err := f(name, op == 1, t); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// String summarizes the batch, e.g. "delta{Accident: +3 -1, Casualty: +6}".
func (d *Delta) String() string {
	var sb strings.Builder
	sb.WriteString("delta{")
	for i, name := range d.Relations() {
		if i > 0 {
			sb.WriteString(", ")
		}
		rd := d.rels[name]
		fmt.Fprintf(&sb, "%s:", name)
		if len(rd.inserts) > 0 {
			fmt.Fprintf(&sb, " +%d", len(rd.inserts))
		}
		if len(rd.deletes) > 0 {
			fmt.Fprintf(&sb, " -%d", len(rd.deletes))
		}
	}
	sb.WriteString("}")
	return sb.String()
}

// ViolationError rejects a delta whose net effect would break D |= A. The
// update had no visible effect: the pre-delta snapshot is untouched.
type ViolationError struct {
	Violations []access.Violation
}

func (e *ViolationError) Error() string {
	msgs := make([]string, len(e.Violations))
	for i, v := range e.Violations {
		msgs[i] = v.Error()
	}
	return fmt.Sprintf("live: delta rejected, it would violate the access schema:\n  %s",
		strings.Join(msgs, "\n  "))
}

// RejectionMessage is the one-line wire form of a rejected delta — the
// "message" of MarshalJSON below and of internal/server's 409 payload,
// so the two surfaces cannot drift apart.
const RejectionMessage = "delta rejected: it would violate the access schema"

// MarshalJSON renders the rejection for embedders speaking JSON: a
// one-line message plus the structured violation list (each entry via
// access.Violation's own JSON form). HTML escaping is off at this level
// too — json.Marshal would otherwise re-escape the constraint arrows
// the inner marshaler left verbatim.
func (e *ViolationError) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(struct {
		Message    string             `json:"message"`
		Violations []access.Violation `json:"violations"`
	}{RejectionMessage, e.Violations})
	return bytes.TrimRight(buf.Bytes(), "\n"), err
}

// Result reports a successfully applied delta: the new snapshot pair plus
// net-effect accounting.
type Result struct {
	// Instance and Indexed form the post-delta snapshot; the pre-delta
	// pair passed to Apply is untouched and remains fully usable.
	Instance *data.Instance
	Indexed  *access.Indexed
	// Inserted and Deleted count the operations with net effect under set
	// semantics (inserting a present tuple or deleting an absent one is a
	// no-op).
	Inserted, Deleted int
	// Size is |D| of the post-delta version: what the write produced,
	// whatever commits after it.
	Size int
}

// checkEvery is how many tuple operations Apply processes between
// context-cancellation checks.
const checkEvery = 1024

// Staged is a delta applied but not yet validated or published: the
// post-delta relations and incrementally maintained index clones, plus
// the bookkeeping validation needs. The pre-delta snapshot it was staged
// from is untouched; a Staged that fails validation is simply dropped.
//
// The Stage → Violations → Commit split exists for coordinators: a
// sharded engine stages one sub-delta per shard in parallel, validates
// the batch GLOBALLY (cross-shard group merges, bounds at the global
// |D|), and only then commits every shard — or none. Single-node Apply
// is the same three steps with local sizes.
type Staged struct {
	ix        *access.Indexed
	newInst   *data.Instance
	clonedIdx map[int]*index.Index
	// maxTouched tracks, per cloned index, the largest group size any of
	// this batch's inserts produced — the only groups that can newly
	// exceed a non-shrinking bound.
	maxTouched map[int]int
	// insertKeys are the X-keys this batch's inserts touched, per
	// constraint — the groups a coordinator must re-measure across
	// shards for constraints not aligned with the partition key.
	insertKeys map[int][]value.Key
	inserted   int
	deleted    int
}

// Stage materializes ix's instance with d applied, without validating
// cardinality bounds or publishing anything. Per relation, deletes are
// applied before inserts (so a tuple both deleted and inserted in one
// batch ends up present), under set semantics. ctx cancels a long stage
// between chunks.
func Stage(ctx context.Context, d *Delta, ix *access.Indexed) (*Staged, error) {
	if ix == nil || ix.Instance == nil {
		return nil, fmt.Errorf("live: no indexed instance to apply to")
	}
	inst := ix.Instance
	cs := ix.Access.Constraints

	st := &Staged{
		ix:         ix,
		clonedIdx:  make(map[int]*index.Index),
		maxTouched: make(map[int]int),
		insertKeys: make(map[int][]value.Key),
	}
	repls := make(map[string]*data.Relation)

	ops := 0
	tick := func() error {
		ops++
		if ops%checkEvery == 0 {
			return ctx.Err()
		}
		return nil
	}

	for _, name := range d.Relations() {
		rd := d.rels[name]
		r := inst.Relation(name)
		if r == nil {
			return nil, fmt.Errorf("live: instance has no relation %s", name)
		}
		cl := r.Clone()
		var idxs []int
		for ci, c := range cs {
			if c.Rel == name {
				st.clonedIdx[ci] = ix.Index(ci).Clone()
				idxs = append(idxs, ci)
			}
		}
		removed, err := cl.DeleteBatch(rd.deletes)
		if err != nil {
			return nil, fmt.Errorf("live: %w", err)
		}
		st.deleted += len(removed)
		for _, t := range removed {
			for _, ci := range idxs {
				st.clonedIdx[ci].Delete(t)
			}
			if err := tick(); err != nil {
				return nil, fmt.Errorf("live: apply canceled: %w", err)
			}
		}
		seenKey := make(map[int]map[value.Key]bool)
		for _, t := range rd.inserts {
			fresh, err := cl.Insert(t)
			if err != nil {
				return nil, fmt.Errorf("live: %w", err)
			}
			if !fresh {
				continue
			}
			st.inserted++
			for _, ci := range idxs {
				k, g := st.clonedIdx[ci].Insert(t)
				if g > st.maxTouched[ci] {
					st.maxTouched[ci] = g
				}
				if seenKey[ci] == nil {
					seenKey[ci] = make(map[value.Key]bool)
				}
				if !seenKey[ci][k] {
					seenKey[ci][k] = true
					st.insertKeys[ci] = append(st.insertKeys[ci], k)
				}
			}
			if err := tick(); err != nil {
				return nil, fmt.Errorf("live: apply canceled: %w", err)
			}
		}
		repls[name] = cl
	}

	newInst, err := inst.CloneWith(repls)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	st.newInst = newInst
	return st, nil
}

// Size returns the staged (post-delta) instance's local size.
func (st *Staged) Size() int { return st.newInst.Size() }

// Inserted and Deleted count the staged operations with net effect
// under set semantics, like Result's fields.
func (st *Staged) Inserted() int { return st.inserted }

// Deleted counts the staged deletions with net effect.
func (st *Staged) Deleted() int { return st.deleted }

// OldSize returns the pre-delta instance's local size.
func (st *Staged) OldSize() int { return st.ix.Instance.Size() }

// Index returns the post-delta index backing constraint ci: the
// incrementally maintained clone when the batch touched its relation,
// the shared pre-delta index otherwise.
func (st *Staged) Index(ci int) *index.Index {
	if idx := st.clonedIdx[ci]; idx != nil {
		return idx
	}
	return st.ix.Index(ci)
}

// Touched reports whether the batch touched constraint ci's relation.
func (st *Staged) Touched(ci int) bool { return st.clonedIdx[ci] != nil }

// InsertKeys returns the distinct X-keys the batch's inserts touched on
// constraint ci, in first-touch order. Only these groups can newly
// exceed a non-shrinking bound.
func (st *Staged) InsertKeys(ci int) []value.Key { return st.insertKeys[ci] }

// Violations checks every cardinality bound of the staged result, with
// general-form constraints s(|D|) evaluated at newSize (and compared
// against oldSize to detect shrinking bounds). A single-node caller
// passes OldSize()/Size(); a sharded coordinator does NOT use this — it
// merges group sizes across shards itself — but reuses the same rules:
// insert-touched groups against the new bound, full re-checks (touched
// and untouched indexes alike) when a bound shrank.
func (st *Staged) Violations(oldSize, newSize int) []access.Violation {
	var viols []access.Violation
	for ci, c := range st.ix.Access.Constraints {
		bound := c.Card.Bound(newSize)
		shrunk := !c.Card.IsConst() && bound < c.Card.Bound(oldSize)
		switch {
		case st.Touched(ci) && shrunk:
			// The batch lowered s(|D|): every group of the touched index
			// must be re-checked, not just the ones this batch grew.
			if g := st.clonedIdx[ci].MaxGroup(); g > bound {
				viols = append(viols, access.Violation{Constraint: c, Group: g, Bound: bound})
			}
		case st.Touched(ci):
			if g := st.maxTouched[ci]; g > bound {
				viols = append(viols, access.Violation{Constraint: c, Group: g, Bound: bound})
			}
		case shrunk:
			// Untouched relation, but a general-form bound shrank with |D|.
			if g := st.ix.Index(ci).MaxGroup(); g > bound {
				viols = append(viols, access.Violation{Constraint: c, Group: g, Bound: bound})
			}
		}
	}
	return viols
}

// Commit assembles the post-delta snapshot pair. The caller must have
// validated first (Violations, or a coordinator's global check): Commit
// itself publishes nothing and never re-checks.
func (st *Staged) Commit() (*Result, error) {
	newIx, err := st.ix.CloneWith(st.newInst, st.clonedIdx)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	return &Result{
		Instance: st.newInst,
		Indexed:  newIx,
		Inserted: st.inserted,
		Deleted:  st.deleted,
		Size:     st.Size(),
	}, nil
}

// Replay applies d to ix IN PLACE: no relation or index clones, no
// validation, no new snapshot pair. It exists for WAL replay during
// recovery, where the caller holds the only reference to a freshly
// decoded checkpoint state and replays a prefix of already-committed
// deltas onto it — paying Stage's copy-on-write cost (O(|relation|)
// clones per delta) there would make recovery scale with |D| x deltas
// for no benefit, since there are no concurrent readers to isolate.
// Never call it on a published snapshot: mutating shared state breaks
// the engine's isolation guarantee. If Replay errors, ix is partially
// mutated and must be discarded.
func Replay(ctx context.Context, d *Delta, ix *access.Indexed) error {
	if ix == nil || ix.Instance == nil {
		return fmt.Errorf("live: no indexed instance to replay onto")
	}
	cs := ix.Access.Constraints
	for _, name := range d.Relations() {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("live: replay canceled: %w", err)
		}
		rd := d.rels[name]
		r := ix.Instance.Relation(name)
		if r == nil {
			return fmt.Errorf("live: instance has no relation %s", name)
		}
		var idxs []int
		for ci, c := range cs {
			if c.Rel == name {
				idxs = append(idxs, ci)
			}
		}
		removed, err := r.DeleteBatchInPlace(rd.deletes)
		if err != nil {
			return fmt.Errorf("live: %w", err)
		}
		for _, t := range removed {
			for _, ci := range idxs {
				ix.Index(ci).Delete(t)
			}
		}
		for _, t := range rd.inserts {
			fresh, err := r.Insert(t)
			if err != nil {
				return fmt.Errorf("live: %w", err)
			}
			if !fresh {
				continue
			}
			for _, ci := range idxs {
				ix.Index(ci).Insert(t)
			}
		}
	}
	return nil
}

// Apply materializes ix's instance with d applied, validating the result
// against the access schema. Per relation, deletes are applied before
// inserts (so a tuple both deleted and inserted in one batch ends up
// present), under set semantics.
//
// On success the returned Result holds the post-delta snapshot: touched
// relations and indices are fresh copies maintained incrementally,
// untouched ones are shared with ix. On a cardinality violation Apply
// returns a *ViolationError listing every broken constraint and the
// pre-delta snapshot stays untouched; general-form constraints s(|D|) are
// re-checked even on untouched relations when the batch shrinks |D|
// enough to lower their bound. ctx cancels a long apply between chunks.
//
// Apply is Stage + Violations + Commit; coordinators that need to
// validate across several staged shards call the pieces directly.
func Apply(ctx context.Context, d *Delta, ix *access.Indexed) (*Result, error) {
	tr := obs.FromContext(ctx)
	sp := tr.Start("apply.stage")
	st, err := Stage(ctx, d, ix)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.SetRows(int64(st.Inserted() + st.Deleted()))
	sp.End()
	sp = tr.Start("apply.validate")
	viols := st.Violations(st.OldSize(), st.Size())
	sp.End()
	if len(viols) > 0 {
		return nil, &ViolationError{Violations: viols}
	}
	sp = tr.Start("apply.commit")
	res, err := st.Commit()
	sp.End()
	return res, err
}
