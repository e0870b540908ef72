package rdf

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func iri(s string) Term { return NewIRI("http://ex.org/" + s) }

// The tests named TestStore* drive ShardedStore through its
// single-triple mutators (Add, Remove) and its convenience read methods,
// each of which publishes pending writes and reads the current
// snapshot. The sharded_test.go tests cover Apply batches and pinned
// Snapshots.

func TestStoreAddContainsRemove(t *testing.T) {
	s := NewShardedStore(0)
	tr := T(iri("delaware_park"), iri("instanceOf"), iri("Place"))
	added, err := s.Add(tr)
	if err != nil || !added {
		t.Fatalf("Add = %v, %v; want true, nil", added, err)
	}
	if !s.Contains(tr) {
		t.Fatal("Contains after Add = false")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	// Duplicate insert is a no-op.
	added, err = s.Add(tr)
	if err != nil || added {
		t.Fatalf("duplicate Add = %v, %v; want false, nil", added, err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len after dup = %d, want 1", s.Len())
	}
	if !s.Remove(tr) {
		t.Fatal("Remove = false, want true")
	}
	if s.Contains(tr) || s.Len() != 0 {
		t.Fatal("triple still present after Remove")
	}
	if s.Remove(tr) {
		t.Fatal("second Remove = true, want false")
	}
}

func TestStoreRejectsNonGround(t *testing.T) {
	s := NewShardedStore(0)
	if _, err := s.Add(T(NewVar("x"), iri("p"), iri("o"))); err == nil {
		t.Fatal("Add of non-ground triple succeeded, want error")
	}
}

// buildTestStore populates a four-shard store with a small mixed
// dataset, so subject-unbound patterns fan out across shards.
func buildTestStore() *ShardedStore {
	s := NewShardedStore(4)
	s.AddTriple(iri("park"), iri("instanceOf"), iri("Place"))
	s.AddTriple(iri("zoo"), iri("instanceOf"), iri("Place"))
	s.AddTriple(iri("hotel"), iri("instanceOf"), iri("Hotel"))
	s.AddTriple(iri("park"), iri("near"), iri("hotel"))
	s.AddTriple(iri("zoo"), iri("near"), iri("hotel"))
	s.AddTriple(iri("park"), iri("label"), NewLiteral("Delaware Park"))
	return s
}

func TestStoreMatchPatterns(t *testing.T) {
	s := buildTestStore()
	v := NewVar
	cases := []struct {
		name    string
		pattern Triple
		want    int
	}{
		{"all", T(v("s"), v("p"), v("o")), 6},
		{"bound s", T(iri("park"), v("p"), v("o")), 3},
		{"bound p", T(v("s"), iri("instanceOf"), v("o")), 3},
		{"bound o", T(v("s"), v("p"), iri("hotel")), 2},
		{"bound sp", T(iri("park"), iri("near"), v("o")), 1},
		{"bound po", T(v("s"), iri("instanceOf"), iri("Place")), 2},
		{"bound so", T(iri("park"), v("p"), iri("hotel")), 1},
		{"ground hit", T(iri("zoo"), iri("near"), iri("hotel")), 1},
		{"ground miss", T(iri("zoo"), iri("near"), iri("park")), 0},
		{"no match", T(iri("nothing"), v("p"), v("o")), 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := s.Match(c.pattern)
			if len(got) != c.want {
				t.Errorf("Match(%v) returned %d triples, want %d", c.pattern, len(got), c.want)
			}
			for _, tr := range got {
				if !s.Contains(tr) {
					t.Errorf("Match returned triple not in store: %v", tr)
				}
			}
			if n := s.CountMatch(c.pattern); n != c.want {
				t.Errorf("CountMatch = %d, want %d", n, c.want)
			}
		})
	}
}

// Every enumeration path must stop as soon as fn returns false; each
// pattern below has at least two matches, and TestShardedMatchFuncEarlyStop
// covers a later stop on the full scan.
func TestStoreMatchFuncEarlyStop(t *testing.T) {
	s := buildTestStore()
	v := NewVar
	for _, pat := range []Triple{
		T(v("s"), v("p"), v("o")),
		T(iri("park"), v("p"), v("o")),
		T(v("s"), iri("instanceOf"), v("o")),
		T(v("s"), v("p"), iri("hotel")),
		T(v("s"), iri("instanceOf"), iri("Place")),
	} {
		n := 0
		s.MatchFunc(pat, func(Triple) bool {
			n++
			return false
		})
		if n != 1 {
			t.Errorf("MatchFunc(%v) visited %d triples after stop, want 1", pat, n)
		}
	}
}

func TestStoreSubjectsObjects(t *testing.T) {
	s := buildTestStore()
	subs := s.Subjects(iri("instanceOf"), iri("Place"))
	if len(subs) != 2 {
		t.Fatalf("Subjects = %v, want 2 results", subs)
	}
	objs := s.Objects(iri("park"), iri("near"))
	if len(objs) != 1 || objs[0] != iri("hotel") {
		t.Fatalf("Objects = %v, want [hotel]", objs)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewShardedStore(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.AddTriple(iri(fmt.Sprintf("s%d_%d", w, i)), iri("p"), iri("o"))
				s.Match(T(NewVar("s"), iri("p"), NewVar("o")))
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Fatalf("Len = %d, want 800", s.Len())
	}
}

// Property: after inserting a random set of ground triples, Match with the
// full wildcard pattern returns exactly the distinct set.
func TestStoreMatchAllEqualsInserted(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewShardedStore(0)
		want := map[Triple]bool{}
		for i := 0; i < int(n%40); i++ {
			tr := T(
				iri(fmt.Sprintf("s%d", r.Intn(5))),
				iri(fmt.Sprintf("p%d", r.Intn(3))),
				iri(fmt.Sprintf("o%d", r.Intn(5))),
			)
			want[tr] = true
			s.MustAdd(tr)
		}
		got := s.All()
		if len(got) != len(want) {
			return false
		}
		for _, tr := range got {
			if !want[tr] {
				return false
			}
		}
		return s.Len() == len(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: removal truly removes and leaves all other triples intact.
func TestStoreRemovePreservesOthers(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewShardedStore(0)
		var all []Triple
		for i := 0; i < 20; i++ {
			tr := T(iri(fmt.Sprintf("s%d", r.Intn(6))), iri("p"), iri(fmt.Sprintf("o%d", r.Intn(6))))
			if ok, _ := s.Add(tr); ok {
				all = append(all, tr)
			}
		}
		if len(all) == 0 {
			return true
		}
		victim := all[r.Intn(len(all))]
		s.Remove(victim)
		if s.Contains(victim) {
			return false
		}
		for _, tr := range all {
			if tr != victim && !s.Contains(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStoreRemoveHeavyLenAndDictRetention drives the store through a
// remove-heavy churn cycle one Remove at a time (its twin
// TestShardedRemoveHeavyAndDictRetention uses Apply batches): Len must
// track exactly through interleaved adds/removes, every index must
// agree after draining to empty, and the dictionary must retain all
// interned IDs (intentional: IDs are dense array indexes and are never
// reused).
func TestStoreRemoveHeavyLenAndDictRetention(t *testing.T) {
	s := NewShardedStore(0)
	var all []Triple
	for i := 0; i < 250; i++ {
		all = append(all, T(iri(fmt.Sprintf("s%d", i%50)), iri(fmt.Sprintf("p%d", i%5)), iri(fmt.Sprintf("o%d", i))))
	}
	for _, tr := range all {
		s.MustAdd(tr)
	}
	dictLen := s.Dict().Len()
	r := rand.New(rand.NewSource(7))
	live := append([]Triple(nil), all...)
	// Remove 80% in random order, spot-checking Len each step.
	for len(live) > 50 {
		i := r.Intn(len(live))
		victim := live[i]
		live = append(live[:i], live[i+1:]...)
		if !s.Remove(victim) {
			t.Fatalf("Remove(%v) = false for live triple", victim)
		}
		if s.Remove(victim) {
			t.Fatalf("double Remove(%v) = true", victim)
		}
		if s.Len() != len(live) {
			t.Fatalf("Len = %d, want %d", s.Len(), len(live))
		}
	}
	// The survivors are fully queryable through every index shape.
	for _, tr := range live {
		if !s.Contains(tr) {
			t.Fatalf("survivor missing: %v", tr)
		}
		if got := s.CountMatch(T(tr.S, tr.P, NewVar("o"))); got < 1 {
			t.Fatalf("CountMatch SP for %v = %d", tr, got)
		}
	}
	if got := s.CountMatch(T(NewVar("s"), NewVar("p"), NewVar("o"))); got != len(live) {
		t.Fatalf("CountMatch all = %d, want %d", got, len(live))
	}
	// Drain to empty, then rebuild: IDs are reused from the dict, not
	// reallocated.
	for _, tr := range live {
		s.Remove(tr)
	}
	if s.Len() != 0 {
		t.Fatalf("Len after drain = %d, want 0", s.Len())
	}
	if got := len(s.All()); got != 0 {
		t.Fatalf("All after drain = %d triples", got)
	}
	if s.Dict().Len() != dictLen {
		t.Fatalf("dict changed across removes: %d -> %d", dictLen, s.Dict().Len())
	}
	for _, tr := range all {
		s.MustAdd(tr)
	}
	if s.Len() != len(all) || s.Dict().Len() != dictLen {
		t.Fatalf("rebuild: Len=%d dict=%d, want %d, %d", s.Len(), s.Dict().Len(), len(all), dictLen)
	}
}

func TestGraphAddRemoveOrder(t *testing.T) {
	g := NewGraph()
	t1 := T(iri("a"), iri("p"), iri("b"))
	t2 := T(iri("c"), iri("p"), iri("d"))
	if !g.Add(t1) || !g.Add(t2) {
		t.Fatal("Add returned false for new triples")
	}
	if g.Add(t1) {
		t.Fatal("duplicate Add returned true")
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
	ts := g.Triples()
	if ts[0] != t1 || ts[1] != t2 {
		t.Fatalf("insertion order not preserved: %v", ts)
	}
	if !g.Remove(t1) || g.Contains(t1) || g.Len() != 1 {
		t.Fatal("Remove failed")
	}
	if g.Remove(t1) {
		t.Fatal("double Remove returned true")
	}
}

func TestGraphVarsFirstAppearanceOrder(t *testing.T) {
	g := NewGraph()
	g.AddAll(
		T(NewVar("x"), iri("near"), NewVar("y")),
		T(NewVar("y"), iri("instanceOf"), NewVar("z")),
		T(NewVar("x"), iri("label"), NewLiteral("l")),
	)
	vars := g.Vars()
	want := []string{"x", "y", "z"}
	if len(vars) != len(want) {
		t.Fatalf("Vars = %v, want %v", vars, want)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", vars, want)
		}
	}
}

func TestGraphCloneIsDeep(t *testing.T) {
	g := NewGraph()
	g.Add(T(iri("a"), iri("p"), iri("b")))
	c := g.Clone()
	c.Add(T(iri("x"), iri("p"), iri("y")))
	if g.Len() != 1 || c.Len() != 2 {
		t.Fatalf("clone not independent: g=%d c=%d", g.Len(), c.Len())
	}
}

func TestTripleVars(t *testing.T) {
	tr := T(NewVar("x"), iri("p"), NewVar("x"))
	vars := tr.Vars()
	if len(vars) != 1 || vars[0] != "x" {
		t.Fatalf("Vars = %v, want [x]", vars)
	}
	if got := T(iri("a"), iri("b"), iri("c")).Vars(); got != nil {
		t.Fatalf("ground triple Vars = %v, want nil", got)
	}
}

func TestSortTriples(t *testing.T) {
	ts := []Triple{
		T(iri("b"), iri("p"), iri("o")),
		T(iri("a"), iri("q"), iri("o")),
		T(iri("a"), iri("p"), iri("o")),
	}
	SortTriples(ts)
	if ts[0].S != iri("a") || ts[0].P != iri("p") || ts[2].S != iri("b") {
		t.Fatalf("SortTriples order wrong: %v", ts)
	}
}
