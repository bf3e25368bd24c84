package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/live"
	"repro/internal/schema"
)

// TestStatsSizeMatchesVersionUnderWrites is a soak for Stats: a writer
// applies one-tuple inserts while readers call Stats, and every reading
// must pair a version with that version's size — |D| = base + Version —
// never the size of one version with the number of another.
func TestStatsSizeMatchesVersionUnderWrites(t *testing.T) {
	s := schema.MustNew(schema.MustRelation("R", "a", "b"))
	a := access.NewSchema(access.NewConstraint("R", []schema.Attribute{"a"}, []schema.Attribute{"b"}, 1))
	const base, writes = 32, 200
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			e, err := New(s, a, Options{Shards: k})
			if err != nil {
				t.Fatal(err)
			}
			d := data.NewInstance(s)
			for i := int64(0); i < base; i++ {
				d.MustInsert("R", iv(i), iv(i%3))
			}
			if err := e.Load(d); err != nil {
				t.Fatal(err)
			}
			var done atomic.Bool
			var wg sync.WaitGroup
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !done.Load() {
						if st := e.Stats(); uint64(st.Size) != base+st.Version {
							t.Errorf("Stats pairs size %d with version %d (want size %d)", st.Size, st.Version, base+st.Version)
							return
						}
					}
				}()
			}
			for i := int64(0); i < writes; i++ {
				delta := live.NewDelta(s)
				delta.MustInsert("R", iv(base+i), iv(i))
				if _, err := e.Apply(context.Background(), delta); err != nil {
					t.Error(err)
					break
				}
			}
			done.Store(true)
			wg.Wait()
			if st := e.Stats(); st.Version != writes || st.Size != base+writes {
				t.Fatalf("after the writes: %+v", st)
			}
		})
	}
}
