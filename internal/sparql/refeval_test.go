package sparql

import (
	"fmt"
	"sort"

	"nl2cm/internal/rdf"
)

// EvalReference is the naive reference evaluator: map-backed bindings
// cloned on every unification, join order chosen by counting unbound
// variables, OPTIONAL groups re-planned per row, and its own grouping,
// ordering and windowing over map-form rows. It shares no join, row or
// modifier code with Eval, which makes it the oracle of the
// differential property tests that pin Eval's and AggregateBindings'
// semantics.
func EvalReference(q *Query, src Source, env *Env) ([]Binding, error) {
	src = pin(src)
	spec, err := aggregationSpec(q)
	if err != nil {
		return nil, err
	}
	rows, err := refEvalBGP(q.Where, src)
	if err != nil {
		return nil, err
	}
	// Union blocks: each block extends the rows through any of its
	// alternative patterns.
	for _, block := range q.Unions {
		var merged []Binding
		for _, alt := range block {
			ext, err := refExtendBGP(rows, alt, src)
			if err != nil {
				return nil, err
			}
			merged = append(merged, ext...)
		}
		rows = merged
		if len(rows) == 0 {
			break
		}
	}
	// Optional groups: left join — a row without a match survives
	// unchanged.
	for _, opt := range q.Optionals {
		var joined []Binding
		for _, b := range rows {
			ext, err := refExtendBGP([]Binding{b}, opt, src)
			if err != nil {
				return nil, err
			}
			if len(ext) == 0 {
				joined = append(joined, b)
			} else {
				joined = append(joined, ext...)
			}
		}
		rows = joined
	}
	// Filters.
	if len(q.Filters) > 0 {
		var kept []Binding
		for _, b := range rows {
			ok := true
			for _, f := range q.Filters {
				v, err := f.Eval(b, env)
				if err != nil {
					// An erroring filter removes the row, per SPARQL
					// semantics for type errors.
					ok = false
					break
				}
				if !v.Truthy() {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, b)
			}
		}
		rows = kept
	}
	// Grouping and aggregation, then HAVING, before ordering.
	if spec != nil {
		rows = refAggregate(spec, rows, env)
	}
	// Order. Per SPARQL ordering semantics, an unbound sort variable
	// sorts before any bound value (so under DESC it sorts last); two
	// unbound values compare equal and fall through to the next key.
	SortBindings(rows, q.OrderBy)
	// Projection.
	if len(q.Vars) > 0 {
		proj := make([]Binding, len(rows))
		for i, b := range rows {
			nb := make(Binding, len(q.Vars))
			for _, v := range q.Vars {
				if t, ok := b[v]; ok {
					nb[v] = t
				}
			}
			proj[i] = nb
		}
		rows = proj
	}
	// Distinct.
	if q.Distinct {
		seen := map[string]bool{}
		var kept []Binding
		for _, b := range rows {
			key := BindingKey(b)
			if !seen[key] {
				seen[key] = true
				kept = append(kept, b)
			}
		}
		rows = kept
	}
	// Offset / limit. The retained window is copied so the full result's
	// backing array does not outlive the slice handed to the caller.
	if q.Offset > 0 || (q.Limit >= 0 && q.Limit < len(rows)) {
		if q.Offset >= len(rows) {
			return nil, nil
		}
		w := rows[q.Offset:]
		if q.Limit >= 0 && q.Limit < len(w) {
			w = w[:q.Limit]
		}
		out := make([]Binding, len(w))
		copy(out, w)
		rows = out
	}
	return rows, nil
}

// refEvalBGP joins the triple patterns left-to-right, at each step
// choosing the most selective remaining pattern (fewest unbound
// variables).
func refEvalBGP(patterns []rdf.Triple, src Source) ([]Binding, error) {
	return refExtendBGP([]Binding{{}}, patterns, src)
}

// refExtendBGP extends existing solution rows with the triple patterns,
// joining on shared variables.
func refExtendBGP(seed []Binding, patterns []rdf.Triple, src Source) ([]Binding, error) {
	if src == nil {
		return nil, fmt.Errorf("sparql: nil source")
	}
	if len(patterns) == 0 {
		return seed, nil
	}
	remaining := make([]rdf.Triple, len(patterns))
	copy(remaining, patterns)
	rows := seed
	bound := map[string]bool{}
	for _, b := range seed {
		for v := range b {
			bound[v] = true
		}
	}
	for len(remaining) > 0 {
		// Pick the pattern with the fewest unbound variables.
		best, bestScore := 0, -1
		for i, p := range remaining {
			score := 0
			for _, v := range p.Vars() {
				if !bound[v] {
					score++
				}
			}
			if bestScore == -1 || score < bestScore {
				best, bestScore = i, score
			}
		}
		p := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		for _, v := range p.Vars() {
			bound[v] = true
		}
		var next []Binding
		for _, b := range rows {
			concrete := substitute(p, b)
			src.MatchFunc(concrete, func(t rdf.Triple) bool {
				nb, ok := unify(concrete, t, b)
				if ok {
					next = append(next, nb)
				}
				return true
			})
		}
		rows = next
		if len(rows) == 0 {
			return nil, nil
		}
	}
	return rows, nil
}

// substitute replaces bound variables in the pattern with their terms.
func substitute(p rdf.Triple, b Binding) rdf.Triple {
	sub := func(t rdf.Term) rdf.Term {
		if t.IsVar() {
			if bt, ok := b[t.Value()]; ok {
				return bt
			}
		}
		return t
	}
	return rdf.T(sub(p.S), sub(p.P), sub(p.O))
}

// unify extends binding b with the variable assignments implied by
// matching pattern p against ground triple t. A repeated variable must
// take the same value in all positions.
func unify(p rdf.Triple, t rdf.Triple, b Binding) (Binding, bool) {
	nb := b.Clone()
	bind := func(pt, gt rdf.Term) bool {
		if !pt.IsVar() {
			return pt.Equal(gt)
		}
		if prev, ok := nb[pt.Value()]; ok {
			return prev.Equal(gt)
		}
		nb[pt.Value()] = gt
		return true
	}
	if !bind(p.S, t.S) || !bind(p.P, t.P) || !bind(p.O, t.O) {
		return nil, false
	}
	return nb, true
}

// refAggregate is the reference evaluator's grouping step over map-form
// bindings. Groups emit in first-appearance order of their keys.
//
// The group key is assembled in a reused byte buffer and looked up via
// groups[string(key)] — the compiler elides that conversion's
// allocation — so only the first row of each group materializes a key
// string. At 100k rows this removes one allocation per row.
func refAggregate(spec *aggSpec, rows []Binding, env *Env) []Binding {
	type group struct {
		rep    Binding
		states []aggState
	}
	hint := groupSizeHint(len(rows))
	// Groups live in a slice in first-appearance order; the map holds
	// indexes into it, so no per-group pointer allocation and no separate
	// emission-order slice are needed.
	arr := make([]group, 0, hint)
	groups := make(map[string]int32, hint)
	states := newAggArena(len(spec.aggs))
	var keyBuf []byte
	for _, b := range rows {
		keyBuf = keyBuf[:0]
		for _, v := range spec.groupBy {
			t, ok := b[v]
			keyBuf = appendGroupKeyPart(keyBuf, t, ok)
		}
		idx, ok := groups[string(keyBuf)]
		if !ok {
			rep := make(Binding, len(spec.groupBy)+len(spec.aggs))
			for _, v := range spec.groupBy {
				if t, ok := b[v]; ok {
					rep[v] = t
				}
			}
			idx = int32(len(arr))
			arr = append(arr, group{rep: rep, states: states.take()})
			groups[string(keyBuf)] = idx
		}
		g := &arr[idx]
		for i, a := range spec.aggs {
			t, ok := b[a.Var]
			g.states[i].add(a, t, ok)
		}
	}
	if len(arr) == 0 && len(spec.groupBy) == 0 {
		// A global aggregate over zero rows still produces one group.
		arr = append(arr, group{rep: Binding{}, states: states.take()})
	}
	out := make([]Binding, 0, len(arr))
	for gi := range arr {
		g := &arr[gi]
		b := g.rep
		for i, a := range spec.aggs {
			if t, ok := g.states[i].result(a); ok {
				b[a.As] = t
			}
		}
		if havingPass(spec.having, b, env) {
			out = append(out, b)
		}
	}
	return out
}

// SortBindings orders map-form solution rows in place under the SPARQL
// ordering semantics both evaluators share: an unbound sort variable
// sorts before any bound value (so under DESC it sorts last), two
// unbound values compare equal and fall through to the next key, and
// bound terms compare under the typed rdf.Term.Compare ordering.
func SortBindings(rows []Binding, keys []OrderKey) {
	if len(keys) == 0 {
		return
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			ti, iok := rows[i][k.Var]
			tj, jok := rows[j][k.Var]
			if !iok || !jok {
				if iok == jok {
					continue
				}
				less := !iok // unbound before bound
				if k.Desc {
					return !less
				}
				return less
			}
			c := ti.Compare(tj)
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}
