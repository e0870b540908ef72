package rdf

import (
	"fmt"
	"testing"
)

func shardedTriples(n int) []Triple {
	ts := make([]Triple, n)
	for i := range ts {
		ts[i] = T(iri(fmt.Sprintf("s%d", i%97)), iri(fmt.Sprintf("p%d", i%7)), iri(fmt.Sprintf("o%d", i)))
	}
	return ts
}

func TestShardedAddSnapshotReadYourWrites(t *testing.T) {
	st := NewShardedStore(4)
	tr := T(iri("a"), iri("p"), iri("b"))
	if st.Len() != 0 || st.Epoch() != 0 {
		t.Fatalf("empty store: Len=%d Epoch=%d, want 0,0", st.Len(), st.Epoch())
	}
	ok, err := st.Add(tr)
	if err != nil || !ok {
		t.Fatalf("Add = %v, %v", ok, err)
	}
	// Read methods publish pending writes: read-your-writes.
	if !st.Contains(tr) {
		t.Fatal("Contains after Add = false")
	}
	if st.Epoch() != 1 {
		t.Fatalf("Epoch after first publish = %d, want 1", st.Epoch())
	}
	ok, err = st.Add(tr)
	if err != nil || ok {
		t.Fatalf("duplicate Add = %v, %v, want false, nil", ok, err)
	}
	if got := st.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
	if st.Epoch() != 1 {
		t.Fatalf("Epoch after duplicate Add = %d, want 1", st.Epoch())
	}
}

func TestShardedSnapshotIsolation(t *testing.T) {
	st := NewShardedStore(4)
	old := T(iri("a"), iri("p"), iri("b"))
	st.MustAdd(old)
	snap := st.Snapshot()
	if snap.Len() != 1 {
		t.Fatalf("snap.Len = %d, want 1", snap.Len())
	}

	newT := T(iri("a"), iri("p"), iri("c"))
	if _, _, _, err := st.Apply(Batch{Insert: []Triple{newT}, Delete: []Triple{old}}); err != nil {
		t.Fatal(err)
	}
	// Old snapshot is frozen: still sees old, not newT.
	if !snap.Contains(old) || snap.Contains(newT) {
		t.Fatalf("old snapshot changed: Contains(old)=%v Contains(new)=%v", snap.Contains(old), snap.Contains(newT))
	}
	if got := snap.CountMatch(T(iri("a"), NewVar("p"), NewVar("o"))); got != 1 {
		t.Fatalf("old snapshot CountMatch = %d, want 1", got)
	}
	// New snapshot sees the batch.
	cur := st.Snapshot()
	if cur.Contains(old) || !cur.Contains(newT) {
		t.Fatalf("new snapshot wrong: Contains(old)=%v Contains(new)=%v", cur.Contains(old), cur.Contains(newT))
	}
	if cur.Epoch() <= snap.Epoch() {
		t.Fatalf("epoch not monotonic: %d then %d", snap.Epoch(), cur.Epoch())
	}
}

func TestShardedApplyReportsCountsAndEpoch(t *testing.T) {
	st := NewShardedStore(0)
	a := T(iri("a"), iri("p"), iri("b"))
	b := T(iri("c"), iri("p"), iri("d"))
	added, removed, epoch, err := st.Apply(Batch{Insert: []Triple{a, b, a}})
	if err != nil || added != 2 || removed != 0 {
		t.Fatalf("Apply = %d, %d, %v; want 2, 0, nil", added, removed, err)
	}
	if epoch != st.Epoch() {
		t.Fatalf("Apply epoch %d != store epoch %d", epoch, st.Epoch())
	}
	added, removed, epoch2, err := st.Apply(Batch{Delete: []Triple{a, T(iri("x"), iri("y"), iri("z"))}})
	if err != nil || added != 0 || removed != 1 {
		t.Fatalf("Apply = %d, %d, %v; want 0, 1, nil", added, removed, err)
	}
	if epoch2 <= epoch {
		t.Fatalf("epoch did not advance: %d then %d", epoch, epoch2)
	}
}

func TestShardedApplyRejectsNonGroundBatchWhole(t *testing.T) {
	st := NewShardedStore(2)
	good := T(iri("a"), iri("p"), iri("b"))
	bad := T(iri("a"), iri("p"), NewVar("x"))
	before := st.Epoch()
	added, removed, epoch, err := st.Apply(Batch{Insert: []Triple{good, bad}})
	if err == nil {
		t.Fatal("Apply with non-ground insert: err = nil")
	}
	if added != 0 || removed != 0 || epoch != before {
		t.Fatalf("rejected batch leaked state: added=%d removed=%d epoch=%d (before %d)", added, removed, epoch, before)
	}
	if st.Contains(good) {
		t.Fatal("rejected batch inserted a triple")
	}
}

func TestShardedShardSizesSumToLen(t *testing.T) {
	st := NewShardedStore(8)
	for _, tr := range shardedTriples(500) {
		st.MustAdd(tr)
	}
	sizes := st.ShardSizes()
	if len(sizes) != st.NumShards() {
		t.Fatalf("len(ShardSizes) = %d, want %d", len(sizes), st.NumShards())
	}
	sum, populated := 0, 0
	for _, n := range sizes {
		sum += n
		if n > 0 {
			populated++
		}
	}
	if sum != st.Len() {
		t.Fatalf("shard sizes sum %d != Len %d", sum, st.Len())
	}
	// 97 distinct subjects over 8 shards: the hash should populate
	// more than one shard or sharding is broken.
	if populated < 2 {
		t.Fatalf("only %d shard populated for 97 subjects", populated)
	}
}

func TestShardedMatchPatterns(t *testing.T) {
	st := NewShardedStore(4)
	trips := []Triple{
		T(iri("alice"), iri("knows"), iri("bob")),
		T(iri("alice"), iri("knows"), iri("carol")),
		T(iri("bob"), iri("knows"), iri("carol")),
		T(iri("alice"), iri("likes"), iri("dave")),
	}
	for _, tr := range trips {
		st.MustAdd(tr)
	}
	cases := []struct {
		pat  Triple
		want int
	}{
		{T(iri("alice"), NewVar("p"), NewVar("o")), 3},
		{T(NewVar("s"), iri("knows"), NewVar("o")), 3},
		{T(NewVar("s"), NewVar("p"), iri("carol")), 2},
		{T(iri("alice"), iri("knows"), NewVar("o")), 2},
		{T(NewVar("s"), iri("knows"), iri("carol")), 2},
		{T(iri("alice"), NewVar("p"), iri("dave")), 1},
		{T(iri("alice"), iri("likes"), iri("dave")), 1},
		{T(NewVar("s"), NewVar("p"), NewVar("o")), 4},
		{T(iri("nobody"), NewVar("p"), NewVar("o")), 0},
	}
	for _, c := range cases {
		if got := len(st.Match(c.pat)); got != c.want {
			t.Errorf("Match(%v) = %d results, want %d", c.pat, got, c.want)
		}
		if got := st.CountMatch(c.pat); got != c.want {
			t.Errorf("CountMatch(%v) = %d, want %d", c.pat, got, c.want)
		}
	}
	if got := len(st.Subjects(iri("knows"), iri("carol"))); got != 2 {
		t.Errorf("Subjects = %d, want 2", got)
	}
	if got := len(st.Objects(iri("alice"), iri("knows"))); got != 2 {
		t.Errorf("Objects = %d, want 2", got)
	}
}

func TestShardedMatchFuncEarlyStop(t *testing.T) {
	st := NewShardedStore(4)
	for _, tr := range shardedTriples(100) {
		st.MustAdd(tr)
	}
	n := 0
	st.MatchFunc(T(NewVar("s"), NewVar("p"), NewVar("o")), func(Triple) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d triples, want 5", n)
	}
}

func TestShardedRemoveHeavyAndDictRetention(t *testing.T) {
	st := NewShardedStore(4)
	trips := shardedTriples(300)
	for _, tr := range trips {
		st.MustAdd(tr)
	}
	dictBefore := st.Dict().Len()
	// Remove everything in two interleaved batches, re-adding a third
	// of it in between, so swap-delete bookkeeping is exercised under
	// churn.
	if _, removed, _, err := st.Apply(Batch{Delete: trips[:150]}); err != nil || removed != 150 {
		t.Fatalf("Apply delete = %d, %v", removed, err)
	}
	if added, _, _, err := st.Apply(Batch{Insert: trips[:100]}); err != nil || added != 100 {
		t.Fatalf("Apply re-insert = %d, %v", added, err)
	}
	if got, want := st.Len(), 300-150+100; got != want {
		t.Fatalf("Len after churn = %d, want %d", got, want)
	}
	for _, tr := range trips[:100] {
		if !st.Contains(tr) {
			t.Fatalf("re-inserted triple missing: %v", tr)
		}
	}
	for _, tr := range trips[100:150] {
		if st.Contains(tr) {
			t.Fatalf("deleted triple still present: %v", tr)
		}
	}
	if _, removed, _, err := st.Apply(Batch{Delete: trips}); err != nil || removed != 250 {
		t.Fatalf("Apply delete-all = %d, %v", removed, err)
	}
	if st.Len() != 0 {
		t.Fatalf("Len after delete-all = %d, want 0", st.Len())
	}
	if got := st.CountMatch(T(NewVar("s"), NewVar("p"), NewVar("o"))); got != 0 {
		t.Fatalf("CountMatch all after delete-all = %d, want 0", got)
	}
	// Interned IDs are intentionally retained: every live snapshot
	// indexes the same dense term table.
	if st.Dict().Len() != dictBefore {
		t.Fatalf("dict shrank: %d -> %d", dictBefore, st.Dict().Len())
	}
}
