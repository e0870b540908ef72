package rdf

import (
	"fmt"
	"math/rand"
	"testing"
)

// naiveStore is the differential oracle for ShardedStore: a plain set of
// triples answered by a linear scan on every read. It shares no
// interning, posting-list or shard code with the store it checks.
type naiveStore map[Triple]bool

func (n naiveStore) add(t Triple) bool {
	if n[t] {
		return false
	}
	n[t] = true
	return true
}

func (n naiveStore) remove(t Triple) bool {
	if !n[t] {
		return false
	}
	delete(n, t)
	return true
}

// apply mirrors Batch semantics: a batch with a non-ground insert
// changes nothing; otherwise deletes run before inserts.
func (n naiveStore) apply(b Batch) (added, removed int, ok bool) {
	for _, t := range b.Insert {
		if !t.IsGround() {
			return 0, 0, false
		}
	}
	for _, t := range b.Delete {
		if n.remove(t) {
			removed++
		}
	}
	for _, t := range b.Insert {
		if n.add(t) {
			added++
		}
	}
	return added, removed, true
}

// match returns the triples agreeing with every concrete position of
// the pattern, sorted.
func (n naiveStore) match(p Triple) []Triple {
	var out []Triple
	for t := range n {
		if (!p.S.IsConcrete() || p.S == t.S) &&
			(!p.P.IsConcrete() || p.P == t.P) &&
			(!p.O.IsConcrete() || p.O == t.O) {
			out = append(out, t)
		}
	}
	SortTriples(out)
	return out
}

// TestShardedDifferentialOracle pins ShardedStore against the naive
// oracle over randomized write histories mixing single Add/Remove calls
// with Apply batches, the write path the daemon uses. Batches may
// delete and re-insert the same triple, delete absent triples, repeat
// triples, or carry a non-ground insert (which must leave the store and
// its epoch unchanged). After every batch, and in a wider sweep at the
// end of each round, all eight bound-position combinations are probed
// and Match (as a set), CountMatch and Len must agree exactly.
func TestShardedDifferentialOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	term := func(prefix string, n int) Term {
		return NewIRI(fmt.Sprintf("http://ex.org/%s%d", prefix, rng.Intn(n)))
	}
	randTriple := func() Triple {
		return T(term("s", 40), term("p", 6), term("o", 25))
	}
	// probe compares one pattern per bound-position mask; the term
	// ranges reach one past the live alphabet, so some probes miss.
	probe := func(st *ShardedStore, oracle naiveStore, where string, mask int) {
		t.Helper()
		s, p, o := Term(NewVar("s")), Term(NewVar("p")), Term(NewVar("o"))
		if mask&1 != 0 {
			s = term("s", 41)
		}
		if mask&2 != 0 {
			p = term("p", 7)
		}
		if mask&4 != 0 {
			o = term("o", 26)
		}
		pat := T(s, p, o)
		snap := st.Snapshot()
		want := oracle.match(pat)
		if got := snap.CountMatch(pat); got != len(want) {
			t.Fatalf("%s: CountMatch(%v) = %d, oracle %d", where, pat, got, len(want))
		}
		got := snap.Match(pat)
		SortTriples(got)
		if len(got) != len(want) {
			t.Fatalf("%s: Match(%v) = %d results, oracle %d", where, pat, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: Match(%v)[%d] = %v, oracle %v", where, pat, i, got[i], want[i])
			}
		}
		if snap.Len() != len(oracle) {
			t.Fatalf("%s: Len = %d, oracle %d", where, snap.Len(), len(oracle))
		}
	}
	// pick usually returns a live triple (drawn from the sorted set, so
	// a seed replays exactly) and otherwise a random, likely absent one.
	pick := func(oracle naiveStore) Triple {
		if len(oracle) > 0 && rng.Intn(4) != 0 {
			live := oracle.match(T(NewVar("s"), NewVar("p"), NewVar("o")))
			return live[rng.Intn(len(live))]
		}
		return randTriple()
	}

	for round := 0; round < 20; round++ {
		st := NewShardedStore(1 << rng.Intn(4)) // 1, 2, 4 or 8 shards
		oracle := naiveStore{}
		for op := 0; op < 300; op++ {
			where := fmt.Sprintf("round %d op %d", round, op)
			switch r := rng.Intn(8); {
			case r < 3:
				tr := randTriple()
				got, err := st.Add(tr)
				if want := oracle.add(tr); err != nil || got != want {
					t.Fatalf("%s: Add(%v) = %v, %v; oracle %v", where, tr, got, err, want)
				}
			case r < 5:
				tr := pick(oracle)
				if got, want := st.Remove(tr), oracle.remove(tr); got != want {
					t.Fatalf("%s: Remove(%v) = %v, oracle %v", where, tr, got, want)
				}
			default:
				var b Batch
				for i := rng.Intn(5); i > 0; i-- {
					b.Delete = append(b.Delete, pick(oracle))
				}
				for i := rng.Intn(6); i > 0; i-- {
					b.Insert = append(b.Insert, randTriple())
				}
				if len(b.Delete) > 0 && rng.Intn(3) == 0 {
					// Delete and re-insert the same triple in one batch.
					b.Insert = append(b.Insert, b.Delete[rng.Intn(len(b.Delete))])
				}
				nonGround := rng.Intn(10) == 0
				if nonGround {
					b.Insert = append(b.Insert, T(term("s", 40), term("p", 6), NewVar("o")))
				}
				before := st.Epoch()
				added, removed, epoch, err := st.Apply(b)
				wantAdded, wantRemoved, ok := oracle.apply(b)
				if nonGround {
					if ok || err == nil {
						t.Fatalf("%s: non-ground batch accepted (err %v)", where, err)
					}
					if added != 0 || removed != 0 || epoch != before || st.Epoch() != before {
						t.Fatalf("%s: rejected batch changed the store: added=%d removed=%d epoch %d -> %d (store %d)",
							where, added, removed, before, epoch, st.Epoch())
					}
				} else {
					if err != nil {
						t.Fatalf("%s: Apply: %v", where, err)
					}
					if added != wantAdded || removed != wantRemoved {
						t.Fatalf("%s: Apply = +%d -%d, oracle +%d -%d", where, added, removed, wantAdded, wantRemoved)
					}
					if epoch != st.Epoch() || epoch < before {
						t.Fatalf("%s: Apply epoch %d, before %d, store now %d", where, epoch, before, st.Epoch())
					}
					if (epoch == before) != (added+removed == 0) {
						t.Fatalf("%s: Apply +%d -%d moved the epoch %d -> %d", where, added, removed, before, epoch)
					}
				}
				for mask := 0; mask < 8; mask++ {
					probe(st, oracle, where, mask)
				}
			}
		}
		for i := 0; i < 200; i++ {
			probe(st, oracle, fmt.Sprintf("round %d sweep", round), i&7)
		}
	}
}
