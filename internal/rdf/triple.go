package rdf

import (
	"fmt"
	"sort"
	"strings"
)

// Triple is a single RDF statement. Any position may hold a variable when
// the triple is used as a query pattern; triples stored in a ShardedStore
// must be ground.
type Triple struct {
	S, P, O Term
}

// T is shorthand for constructing a Triple.
func T(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// IsGround reports whether no position holds a variable.
func (t Triple) IsGround() bool {
	return t.S.IsConcrete() && t.P.IsConcrete() && t.O.IsConcrete()
}

// Vars returns the names of the variables appearing in the triple, in
// subject-predicate-object order, without duplicates.
func (t Triple) Vars() []string {
	var out []string
	t.EachVar(func(v string) { out = append(out, v) })
	return out
}

// EachVar calls fn for each distinct variable name in the triple, in
// subject-predicate-object order, without allocating. Query planning and
// compilation walk pattern variables in inner loops, where the slice
// Vars builds per call is measurable.
func (t Triple) EachVar(fn func(string)) {
	sv := t.S.IsVar()
	pv := t.P.IsVar()
	if sv {
		fn(t.S.Value())
	}
	if pv && !(sv && t.P.Value() == t.S.Value()) {
		fn(t.P.Value())
	}
	if t.O.IsVar() &&
		!(sv && t.O.Value() == t.S.Value()) &&
		!(pv && t.O.Value() == t.P.Value()) {
		fn(t.O.Value())
	}
}

// Equal reports componentwise equality.
func (t Triple) Equal(o Triple) bool { return t == o }

// Compare orders triples lexicographically by S, P, O.
func (t Triple) Compare(o Triple) int {
	if c := t.S.Compare(o.S); c != 0 {
		return c
	}
	if c := t.P.Compare(o.P); c != 0 {
		return c
	}
	return t.O.Compare(o.O)
}

func (t Triple) String() string {
	return fmt.Sprintf("%s %s %s .", t.S, t.P, t.O)
}

// SortTriples sorts a slice of triples in place in S, P, O order.
func SortTriples(ts []Triple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

// Graph is an ordered collection of triples with set-like helpers. Unlike
// ShardedStore it preserves insertion order and permits non-ground triples, which
// makes it suitable for carrying query patterns between pipeline modules.
type Graph struct {
	triples []Triple
	index   map[Triple]bool
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{index: map[Triple]bool{}}
}

// Add appends the triple if it is not already present and reports whether
// it was inserted.
func (g *Graph) Add(t Triple) bool {
	if g.index == nil {
		g.index = map[Triple]bool{}
	}
	if g.index[t] {
		return false
	}
	g.index[t] = true
	g.triples = append(g.triples, t)
	return true
}

// AddAll adds every triple in ts.
func (g *Graph) AddAll(ts ...Triple) {
	for _, t := range ts {
		g.Add(t)
	}
}

// Remove deletes the triple if present and reports whether it was removed.
func (g *Graph) Remove(t Triple) bool {
	if g.index == nil || !g.index[t] {
		return false
	}
	delete(g.index, t)
	for i, x := range g.triples {
		if x == t {
			g.triples = append(g.triples[:i], g.triples[i+1:]...)
			break
		}
	}
	return true
}

// Contains reports whether the triple is present.
func (g *Graph) Contains(t Triple) bool { return g.index != nil && g.index[t] }

// Len returns the number of triples.
func (g *Graph) Len() int { return len(g.triples) }

// Triples returns a copy of the triples in insertion order.
func (g *Graph) Triples() []Triple {
	out := make([]Triple, len(g.triples))
	copy(out, g.triples)
	return out
}

// Vars returns the variable names appearing anywhere in the graph, in
// first-appearance order.
func (g *Graph) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, t := range g.triples {
		for _, v := range t.Vars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := NewGraph()
	c.AddAll(g.triples...)
	return c
}

func (g *Graph) String() string {
	var b strings.Builder
	for _, t := range g.triples {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}
