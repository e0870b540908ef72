package rdf

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultShards is the shard count used when NewShardedStore is given a
// non-positive value. Sixteen shards keep per-shard clone cost small at
// the scales we load-test while leaving the per-snapshot fan-out (counts
// with an unbound subject sum across shards) cheap.
const DefaultShards = 16

// ShardedStore is a mutable triple store partitioned by subject hash
// whose readers never observe a half-applied write. Writes buffer into
// per-shard copy-on-write builders and become visible only when a new
// immutable Snapshot is published under a monotonically increasing
// epoch; every read path (including the ShardedStore's own convenience
// read methods) runs against one published Snapshot, so a query that
// pins a snapshot sees a single consistent epoch for its whole
// lifetime no matter how many batches land meanwhile.
//
// Publication is read-triggered: mutators only mark the store dirty,
// and the next Snapshot call freezes all pending builders into one new
// epoch. Bulk loads therefore cost one publish, not one per Add, while
// read-your-writes still holds. Apply publishes eagerly so callers
// learn the epoch their batch landed in.
//
// Terms are interned to dense uint32 IDs through one Dict shared by
// every snapshot, and each shard indexes its triples through the six
// access paths (S, P, O, SP, PO, OS) as flat posting lists of packed
// integer keys rather than nested maps of Term structs: one hash over a
// machine word replaces three hashes over four-field structs, and
// enumeration walks a contiguous slice instead of chasing map buckets.
// Lookups with any combination of bound positions run against the most
// selective index, and CountMatch answers from posting-list lengths.
// The zero value is not usable — create one with NewShardedStore.
type ShardedStore struct {
	mu       sync.Mutex // serializes mutators and publication
	dict     *Dict
	mask     uint32
	pending  []*shardBuilder // nil entries are clean shards
	dirty    atomic.Bool
	snap     atomic.Pointer[Snapshot]
	epochGen uint64 // last published epoch; guarded by mu
}

// Snapshot is an immutable point-in-time view of a ShardedStore. Its
// read API (Match, MatchFunc, CountMatch, Subjects, Objects, Contains,
// Len, All) satisfies the sparql Source interface; a consumer that
// holds a Snapshot across an entire query is isolated from concurrent
// writes.
type Snapshot struct {
	epoch  uint64
	dict   *Dict
	mask   uint32
	shards []*shardData
	total  int
}

// shardData is one shard's immutable index set. Posting slices may be
// shared with older and newer snapshots; they are copied before the
// first mutation in each epoch.
type shardData struct {
	// pos maps a triple to its position in trips, for O(1) membership
	// and swap-delete removal.
	pos   map[ids3]int
	trips []ids3
	// Single-position indexes: subject -> packed (p,o), predicate ->
	// packed (o,s), object -> packed (s,p).
	bySubj map[uint32][]uint64
	byPred map[uint32][]uint64
	byObj  map[uint32][]uint64
	// Pair indexes: packed (s,p) -> o, packed (p,o) -> s, packed (o,s)
	// -> p.
	bySP map[uint64][]uint32
	byPO map[uint64][]uint32
	byOS map[uint64][]uint32
}

// ids3 is a triple of interned term IDs.
type ids3 struct{ s, p, o uint32 }

// pack combines two interned IDs into one 64-bit index key.
func pack(a, b uint32) uint64 { return uint64(a)<<32 | uint64(b) }

func unpackHi(k uint64) uint32 { return uint32(k >> 32) }
func unpackLo(k uint64) uint32 { return uint32(k) }

var emptyShard = &shardData{}

// Batch is a set of mutations applied and published atomically:
// readers observe all of a batch's triples or none of them. Deletes
// are applied before inserts.
type Batch struct {
	Insert []Triple
	Delete []Triple
}

// NewShardedStore returns an empty store with the given shard count,
// rounded up to a power of two; non-positive means DefaultShards.
func NewShardedStore(shards int) *ShardedStore {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	st := &ShardedStore{
		dict:    NewDict(),
		mask:    uint32(n - 1),
		pending: make([]*shardBuilder, n),
	}
	empty := &Snapshot{dict: st.dict, mask: st.mask, shards: make([]*shardData, n)}
	for i := range empty.shards {
		empty.shards[i] = emptyShard
	}
	st.snap.Store(empty)
	return st
}

// shardOf maps a subject ID to its shard. IDs are dense and
// first-intern ordered, so a Fibonacci multiplicative hash spreads
// consecutively allocated subjects instead of striping them.
func (st *ShardedStore) shardOf(sid uint32) uint32 {
	return (sid * 0x9E3779B1) >> 16 & st.mask
}

func (sn *Snapshot) shardOf(sid uint32) uint32 {
	return (sid * 0x9E3779B1) >> 16 & sn.mask
}

// Dict exposes the store's symbol table, shared by all snapshots.
func (st *ShardedStore) Dict() *Dict { return st.dict }

// builder returns the pending builder for a shard, creating it from
// the current snapshot's shard on first mutation this epoch. Callers
// hold mu.
func (st *ShardedStore) builder(shard uint32) *shardBuilder {
	if b := st.pending[shard]; b != nil {
		return b
	}
	b := newShardBuilder(st.snap.Load().shards[shard])
	st.pending[shard] = b
	st.dirty.Store(true)
	return b
}

// present reports whether the triple is in the store including pending
// writes, without creating a builder: a write that changes nothing
// must neither clone a shard nor publish an epoch. Callers hold mu.
func (st *ShardedStore) present(shard uint32, k ids3) bool {
	data := st.snap.Load().shards[shard]
	if b := st.pending[shard]; b != nil {
		data = &b.data
	}
	_, ok := data.pos[k]
	return ok
}

// add buffers one insert; callers hold mu.
func (st *ShardedStore) add(t Triple) (bool, error) {
	if !t.IsGround() {
		return false, fmt.Errorf("rdf: cannot store non-ground triple %v", t)
	}
	k := ids3{st.dict.Intern(t.S), st.dict.Intern(t.P), st.dict.Intern(t.O)}
	shard := st.shardOf(k.s)
	if st.present(shard, k) {
		return false, nil
	}
	return st.builder(shard).add(k), nil
}

// remove buffers one delete; callers hold mu.
func (st *ShardedStore) remove(t Triple) bool {
	k, sb, pb, ob, possible := resolve(st.dict, t)
	if !possible || !sb || !pb || !ob {
		return false
	}
	shard := st.shardOf(k.s)
	if !st.present(shard, k) {
		return false
	}
	return st.builder(shard).remove(k)
}

// Add buffers a ground triple for the next epoch and reports whether
// it was absent. The triple becomes visible to the next Snapshot call
// (including the store's own read methods), not to snapshots already
// held by readers.
func (st *ShardedStore) Add(t Triple) (bool, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.add(t)
}

// MustAdd inserts a ground triple and panics on error; it is intended
// for building embedded ontologies whose data is known well-formed.
func (st *ShardedStore) MustAdd(t Triple) {
	if _, err := st.Add(t); err != nil {
		panic(err)
	}
}

// AddTriple is a convenience for MustAdd(T(sub, pred, obj)).
func (st *ShardedStore) AddTriple(sub, pred, obj Term) {
	st.MustAdd(T(sub, pred, obj))
}

// Remove buffers a delete for the next epoch and reports whether the
// triple was present. Interned term IDs are retained forever by design:
// IDs are dense array indexes shared by every live snapshot, so
// reclaiming them would require a global rewrite; a store that churns
// the same vocabulary re-uses the retained IDs at zero cost.
func (st *ShardedStore) Remove(t Triple) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.remove(t)
}

// Apply applies a batch (deletes first, then inserts) and publishes
// the resulting epoch immediately. It returns the number of triples
// actually inserted and deleted and the epoch now serving them; a
// batch that inserts and deletes nothing publishes no new epoch unless
// Add or Remove left writes pending. A batch containing a non-ground
// insert is rejected whole: nothing is buffered and the current epoch
// is returned.
func (st *ShardedStore) Apply(b Batch) (added, removed int, epoch uint64, err error) {
	for _, t := range b.Insert {
		if !t.IsGround() {
			return 0, 0, st.Epoch(), fmt.Errorf("rdf: cannot store non-ground triple %v", t)
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, t := range b.Delete {
		if st.remove(t) {
			removed++
		}
	}
	for _, t := range b.Insert {
		if ok, _ := st.add(t); ok {
			added++
		}
	}
	return added, removed, st.publishLocked().epoch, nil
}

// publishLocked freezes all pending builders into a new snapshot and
// publishes it under the next epoch. Callers hold mu. Publishing with
// no pending writes returns the current snapshot unchanged.
func (st *ShardedStore) publishLocked() *Snapshot {
	cur := st.snap.Load()
	if !st.dirty.Load() {
		return cur
	}
	next := &Snapshot{
		dict:   st.dict,
		mask:   st.mask,
		shards: make([]*shardData, len(cur.shards)),
	}
	for i, b := range st.pending {
		if b == nil {
			next.shards[i] = cur.shards[i]
		} else {
			next.shards[i] = b.freeze()
			st.pending[i] = nil
		}
		next.total += len(next.shards[i].trips)
	}
	st.epochGen++
	next.epoch = st.epochGen
	// The dirty flag must drop before the pointer swaps so a racing
	// reader that sees dirty==false loads the new snapshot or an older
	// one, never a torn state; both orders are correct, this one spares
	// the reader a needless lock acquisition.
	st.dirty.Store(false)
	st.snap.Store(next)
	return next
}

// Snapshot returns the current published view, first publishing any
// pending writes. The common clean path is a single atomic load.
func (st *ShardedStore) Snapshot() *Snapshot {
	if !st.dirty.Load() {
		return st.snap.Load()
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.publishLocked()
}

// Epoch returns the epoch of the current published view (pending
// writes are published first, as in Snapshot).
func (st *ShardedStore) Epoch() uint64 { return st.Snapshot().epoch }

// ShardSizes returns the triple count per shard of the current view.
func (st *ShardedStore) ShardSizes() []int { return st.Snapshot().ShardSizes() }

// NumShards returns the shard count.
func (st *ShardedStore) NumShards() int { return int(st.mask) + 1 }

// The ShardedStore read methods below delegate to the current
// snapshot. Two calls may observe different epochs; consumers that
// need one consistent view for several reads must pin a Snapshot.

// Match returns all ground triples matching the pattern.
func (st *ShardedStore) Match(pattern Triple) []Triple { return st.Snapshot().Match(pattern) }

// MatchFunc streams all triples matching the pattern to fn.
func (st *ShardedStore) MatchFunc(pattern Triple, fn func(Triple) bool) {
	st.Snapshot().MatchFunc(pattern, fn)
}

// CountMatch returns the number of triples matching the pattern.
func (st *ShardedStore) CountMatch(pattern Triple) int { return st.Snapshot().CountMatch(pattern) }

// Contains reports whether the ground triple is in the store.
func (st *ShardedStore) Contains(t Triple) bool { return st.Snapshot().Contains(t) }

// Len returns the number of stored triples.
func (st *ShardedStore) Len() int { return st.Snapshot().Len() }

// Subjects returns the subjects of triples with the given predicate
// and object.
func (st *ShardedStore) Subjects(pred, obj Term) []Term { return st.Snapshot().Subjects(pred, obj) }

// Objects returns the objects of triples with the given subject and
// predicate.
func (st *ShardedStore) Objects(sub, pred Term) []Term { return st.Snapshot().Objects(sub, pred) }

// All returns every stored triple in unspecified order.
func (st *ShardedStore) All() []Triple { return st.Snapshot().All() }

// Epoch returns the snapshot's publication epoch; 0 is the empty
// pre-publication view.
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// Len returns the number of triples in the snapshot.
func (sn *Snapshot) Len() int { return sn.total }

// ShardSizes returns the snapshot's triple count per shard.
func (sn *Snapshot) ShardSizes() []int {
	sizes := make([]int, len(sn.shards))
	for i, sh := range sn.shards {
		sizes[i] = len(sh.trips)
	}
	return sizes
}

// resolve looks each concrete pattern position up in the dictionary
// without interning; a miss means the pattern cannot match.
func resolve(d *Dict, p Triple) (k ids3, sb, pb, ob, possible bool) {
	possible = true
	if sb = p.S.IsConcrete(); sb {
		if k.s, possible = d.Lookup(p.S); !possible {
			return
		}
	}
	if pb = p.P.IsConcrete(); pb {
		if k.p, possible = d.Lookup(p.P); !possible {
			return
		}
	}
	if ob = p.O.IsConcrete(); ob {
		k.o, possible = d.Lookup(p.O)
	}
	return
}

// Contains reports whether the ground triple is in the snapshot.
func (sn *Snapshot) Contains(t Triple) bool {
	k, sb, pb, ob, possible := resolve(sn.dict, t)
	if !possible || !sb || !pb || !ob {
		return false
	}
	_, ok := sn.shards[sn.shardOf(k.s)].pos[k]
	return ok
}

// Match returns all ground triples matching the pattern, where
// variables (and only variables) act as wildcards.
func (sn *Snapshot) Match(pattern Triple) []Triple {
	var out []Triple
	sn.MatchFunc(pattern, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// MatchFunc streams all triples matching the pattern to fn; iteration
// stops early when fn returns false. A subject-bound pattern touches
// exactly one shard; other shapes fan out across shards.
func (sn *Snapshot) MatchFunc(pattern Triple, fn func(Triple) bool) {
	k, sb, pb, ob, possible := resolve(sn.dict, pattern)
	if !possible {
		return
	}
	terms := sn.dict.snapshot()
	p := pattern
	if sb {
		sh := sn.shards[sn.shardOf(k.s)]
		switch {
		case pb && ob:
			if _, ok := sh.pos[k]; ok {
				fn(p)
			}
		case pb:
			for _, o := range sh.bySP[pack(k.s, k.p)] {
				if !fn(T(p.S, p.P, terms[o])) {
					return
				}
			}
		case ob:
			for _, pred := range sh.byOS[pack(k.o, k.s)] {
				if !fn(T(p.S, terms[pred], p.O)) {
					return
				}
			}
		default:
			for _, po := range sh.bySubj[k.s] {
				if !fn(T(p.S, terms[unpackHi(po)], terms[unpackLo(po)])) {
					return
				}
			}
		}
		return
	}
	for _, sh := range sn.shards {
		switch {
		case pb && ob:
			for _, sub := range sh.byPO[pack(k.p, k.o)] {
				if !fn(T(terms[sub], p.P, p.O)) {
					return
				}
			}
		case pb:
			for _, os := range sh.byPred[k.p] {
				if !fn(T(terms[unpackLo(os)], p.P, terms[unpackHi(os)])) {
					return
				}
			}
		case ob:
			for _, sp := range sh.byObj[k.o] {
				if !fn(T(terms[unpackHi(sp)], terms[unpackLo(sp)], p.O)) {
					return
				}
			}
		default:
			for _, t := range sh.trips {
				if !fn(T(terms[t.s], terms[t.p], terms[t.o])) {
					return
				}
			}
		}
	}
}

// CountMatch returns the number of triples matching the pattern
// without materializing them. Subject-bound shapes answer from one
// shard's posting-list length in O(1); the rest sum one length per
// shard, O(shards).
func (sn *Snapshot) CountMatch(pattern Triple) int {
	k, sb, pb, ob, possible := resolve(sn.dict, pattern)
	if !possible {
		return 0
	}
	if sb {
		sh := sn.shards[sn.shardOf(k.s)]
		switch {
		case pb && ob:
			if _, ok := sh.pos[k]; ok {
				return 1
			}
			return 0
		case pb:
			return len(sh.bySP[pack(k.s, k.p)])
		case ob:
			return len(sh.byOS[pack(k.o, k.s)])
		default:
			return len(sh.bySubj[k.s])
		}
	}
	n := 0
	for _, sh := range sn.shards {
		switch {
		case pb && ob:
			n += len(sh.byPO[pack(k.p, k.o)])
		case pb:
			n += len(sh.byPred[k.p])
		case ob:
			n += len(sh.byObj[k.o])
		default:
			n += len(sh.trips)
		}
	}
	return n
}

// Subjects returns the subjects of triples with the given predicate
// and object.
func (sn *Snapshot) Subjects(pred, obj Term) []Term {
	var out []Term
	sn.MatchFunc(T(NewVar("s"), pred, obj), func(t Triple) bool {
		out = append(out, t.S)
		return true
	})
	return out
}

// Objects returns the objects of triples with the given subject and
// predicate.
func (sn *Snapshot) Objects(sub, pred Term) []Term {
	var out []Term
	sn.MatchFunc(T(sub, pred, NewVar("o")), func(t Triple) bool {
		out = append(out, t.O)
		return true
	})
	return out
}

// All returns every triple in the snapshot in unspecified order.
func (sn *Snapshot) All() []Triple {
	return sn.Match(T(NewVar("s"), NewVar("p"), NewVar("o")))
}
