package pager

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestLogDirtyVisitsExactlyTheUnloggedFrames drives a pool through every
// transition that creates or retires a dirty-unlogged frame — allocate,
// re-dirty, log, flush, eviction write-back, close and reopen, discard —
// and checks after each that LogDirty reports precisely those frames, in
// ascending page order, from the unlogged set and not a pool walk.
func TestLogDirtyVisitsExactlyTheUnloggedFrames(t *testing.T) {
	f := NewMemFile()
	p := newPager(t, f, 256)
	rng := rand.New(rand.NewSource(1))
	want := map[PageID]bool{}
	check := func(label string) {
		t.Helper()
		if id, drift := p.unloggedDriftForTest(); drift {
			t.Fatalf("%s: unlogged set and frame flags disagree on page %d", label, id)
		}
		var got []PageID
		if err := p.LogDirty(func(id PageID, _ []byte) error {
			got = append(got, id)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatalf("%s: LogDirty order %v is not ascending", label, got)
		}
		exp := []PageID{}
		for id := range want {
			exp = append(exp, id)
		}
		sort.Slice(exp, func(i, j int) bool { return exp[i] < exp[j] })
		if len(got) != len(exp) || (len(exp) > 0 && !reflect.DeepEqual(got, exp)) {
			t.Fatalf("%s: LogDirty visited %v, want %v", label, got, exp)
		}
		want = map[PageID]bool{} // all logged now
	}
	dirty := func(n int) {
		for i := 0; i < n; i++ {
			id := PageID(rng.Intn(int(p.NumPages())))
			pg, err := p.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			pg.MarkDirty()
			pg.MarkDirty() // idempotent while unlogged
			pg.Release()
			want[id] = true
		}
	}

	for i := 0; i < 200; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		want[pg.ID()] = true
		pg.Release()
	}
	check("after allocate")
	check("nothing new")
	dirty(40)
	check("after re-dirty")

	dirty(40)
	if err := p.Flush(); err != nil { // write-back retires them unlogged
		t.Fatal(err)
	}
	want = map[PageID]bool{}
	check("after flush")

	// Without no-steal, allocating past capacity evicts dirty frames by
	// writing them back; whatever stays cached and dirty is still listed.
	dirty(60)
	for i := 0; i < 300; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		pg.Release()
	}
	if id, drift := p.unloggedDriftForTest(); drift {
		t.Fatalf("after eviction: unlogged set and frame flags disagree on page %d", id)
	}
	p = reopen(t, p, f, 256)
	want = map[PageID]bool{}
	check("after reopen")

	dirty(30)
	if err := p.Discard(); err != nil {
		t.Fatal(err)
	}
	want = map[PageID]bool{}
	check("after discard")
}
