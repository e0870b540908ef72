package sparql

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"nl2cm/internal/rdf"
)

// Source is any triple collection that can enumerate and count the
// matches for a pattern (variables act as wildcards). *rdf.Snapshot
// implements it (and *rdf.ShardedStore, which evaluation pins to a
// Snapshot), counting from posting-list lengths: O(1) with a bound
// subject, one length per shard otherwise. The IX detector's
// GraphSource exposes a dependency graph as triples and counts exactly
// over its per-relation edge index. The join planner orders patterns
// by CountMatch, so it should be cheap next to MatchFunc.
type Source interface {
	MatchFunc(pattern rdf.Triple, fn func(rdf.Triple) bool)
	CountMatch(pattern rdf.Triple) int
}

// pin resolves a mutable source to an immutable point-in-time view when
// the source supports it (*rdf.ShardedStore does). Evaluation pins
// once at query start, so planning and every join step of one query see
// a single epoch even while write batches publish concurrently;
// mid-query reads never mix epochs.
func pin(src Source) Source {
	if s, ok := src.(interface{ Snapshot() *rdf.Snapshot }); ok {
		return s.Snapshot()
	}
	return src
}

// Eval evaluates the query against the source and returns the solution
// bindings, projected, filtered, ordered and limited per the query.
//
// Internally rows are slot-indexed term slices that share storage with
// their parent row until a join step binds a new variable; the map-form
// Binding is only materialized at this API boundary. Basic graph
// patterns stream depth-first through the planned join order without
// materializing per-pattern intermediate row sets, and filters whose
// variables are all bound by the main pattern run inside the join,
// pruning rows before they fan out. The differential tests pin the
// result multiset to a naive map-based reference evaluator (assuming
// pure Env functions and sets); row order before ORDER BY is
// unspecified. Queries of any width evaluate here.
func Eval(q *Query, src Source, env *Env) ([]Binding, error) {
	if src == nil {
		return nil, fmt.Errorf("sparql: nil source")
	}
	src = pin(src)
	spec, err := aggregationSpec(q)
	if err != nil {
		return nil, err
	}
	c := compileQuery(q, spec)
	e := &exec{c: c, src: src, env: env, view: &rowView{c: c}}

	// Main basic graph pattern: plan once, attach every filter whose
	// variables are certainly bound by it, stream the join. The empty
	// pattern yields the single all-unbound row.
	plan := planBGP(q.Where, nil, src)
	steps, postFilters := attachFilters(plan, q.Filters, c)
	rows := e.extend(c.vars, steps, 0, nil)

	// Union blocks: each block extends the rows through any of its
	// alternative patterns (bag semantics: a row reached through two
	// alternatives appears twice). mayBind tracks which variables earlier
	// parts may have bound, informing the planner; it is only needed when
	// there is anything beyond the main pattern to plan.
	var mayBind map[string]bool
	markVars := func(patterns []rdf.Triple) {
		for _, p := range patterns {
			p.EachVar(func(v string) { mayBind[v] = true })
		}
	}
	if len(q.Unions) > 0 || len(q.Optionals) > 0 {
		mayBind = map[string]bool{}
		markVars(q.Where)
	}
	for _, block := range q.Unions {
		var merged []row
		for _, alt := range block {
			altSteps := toSteps(planBGP(alt, mayBind, src))
			for _, r := range rows {
				merged = e.extend(r, altSteps, 0, merged)
			}
		}
		for _, alt := range block {
			markVars(alt)
		}
		rows = merged
		if len(rows) == 0 {
			break
		}
	}

	// Optional groups: left join — a row without a match survives
	// unchanged. Each group is planned once, not once per row.
	for _, opt := range q.Optionals {
		optSteps := toSteps(planBGP(opt, mayBind, src))
		joined := make([]row, 0, len(rows))
		for _, r := range rows {
			n := len(joined)
			joined = e.extend(r, optSteps, 0, joined)
			if len(joined) == n {
				joined = append(joined, r)
			}
		}
		markVars(opt)
		rows = joined
	}

	// Filters that could not run inside the main join (variables bound
	// only by OPTIONAL/UNION parts, or not at all).
	if len(postFilters) > 0 {
		kept := rows[:0]
		for _, r := range rows {
			if e.filtersPass(postFilters, r) {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	return e.finish(q, spec, rows), nil
}

// finish applies the solution modifiers that follow the WHERE clause, in
// SPARQL order — grouping and HAVING, ORDER BY, projection, DISTINCT, the
// OFFSET/LIMIT window — and materializes map-form bindings. rows may be
// reordered and filtered in place.
func (e *exec) finish(q *Query, spec *aggSpec, rows []row) []Binding {
	c := e.c

	// Grouping and aggregation: collapse rows into per-group rows binding
	// the GROUP BY variables and aggregate aliases, then apply HAVING.
	if spec != nil {
		rows = e.aggregateRows(spec, rows)
	}

	// Order. Per SPARQL ordering semantics, an unbound sort variable
	// sorts before any bound value (so under DESC it sorts last); two
	// unbound values compare equal and fall through to the next key.
	if len(q.OrderBy) > 0 {
		keys := make([]struct {
			slot int
			has  bool
			desc bool
		}, len(q.OrderBy))
		for i, k := range q.OrderBy {
			keys[i].slot, keys[i].has = c.slots[k.Var]
			keys[i].desc = k.Desc
		}
		sort.SliceStable(rows, func(i, j int) bool {
			for _, k := range keys {
				if !k.has {
					continue // variable no row can bind: all equal
				}
				ti, iok := rows[i].get(k.slot)
				tj, jok := rows[j].get(k.slot)
				if !iok || !jok {
					if iok == jok {
						continue
					}
					less := !iok // unbound before bound
					if k.desc {
						return !less
					}
					return less
				}
				c := ti.Compare(tj)
				if c == 0 {
					continue
				}
				if k.desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}

	// Projection: DISTINCT and materialization read only the kept slots.
	keep := c.projection(q.Vars)

	// Distinct. The kept slots are a fixed sequence, so a row's key is
	// one group-key part per kept slot, bound or not.
	if q.Distinct {
		seen := map[string]bool{}
		kept := rows[:0]
		var key []byte
		for _, r := range rows {
			key = key[:0]
			for slot := range r {
				if keep == nil || keep[slot] {
					t, ok := r.get(slot)
					key = appendGroupKeyPart(key, t, ok)
				}
			}
			if !seen[string(key)] {
				seen[string(key)] = true
				kept = append(kept, r)
			}
		}
		rows = kept
	}

	// Offset / limit.
	if q.Offset > 0 {
		if q.Offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(rows) {
		rows = rows[:q.Limit]
	}

	// Materialize map-form bindings at the API boundary. The output is
	// freshly allocated, so OFFSET/LIMIT windows never pin a larger
	// backing array.
	out := make([]Binding, len(rows))
	for i, r := range rows {
		b := make(Binding)
		for slot := range r {
			if t, ok := r.get(slot); ok && (keep == nil || keep[slot]) {
				b[c.vars[slot].Value()] = t
			}
		}
		out[i] = b
	}
	return out
}

// EvalPattern evaluates a bare graph pattern (triples + filters) and
// returns all satisfying bindings.
func EvalPattern(where []rdf.Triple, filters []Expr, src Source, env *Env) ([]Binding, error) {
	q := &Query{Where: where, Filters: filters, Limit: -1}
	return Eval(q, src, env)
}

// row is one solution during evaluation: terms indexed by compiled slot.
// An unbound slot holds its own variable term, which no source yields
// (sources hold ground triples and aggregates produce literals or bound
// terms), so the all-unbound row is the slot table's vars slice itself.
// Extending a row copies the term slice once (copy-on-write); rows that
// bind nothing new share their parent's storage.
type row []rdf.Term

func (r row) get(slot int) (rdf.Term, bool) {
	t := r[slot]
	return t, !t.IsVar()
}

// rowView adapts a row to the Vars interface for filter evaluation; one
// view per execution is re-pointed between rows to avoid allocating an
// adapter per filter call.
type rowView struct {
	c *compiled
	r row
}

// Get implements Vars.
func (v *rowView) Get(name string) (rdf.Term, bool) {
	slot, ok := v.c.slots[name]
	if !ok {
		return rdf.Term{}, false
	}
	return v.r.get(slot)
}

// planStep is one joined pattern plus the filters that become decidable
// once its variables are bound.
type planStep struct {
	pat     rdf.Triple
	filters []Expr
}

func toSteps(plan []rdf.Triple) []planStep {
	steps := make([]planStep, len(plan))
	for i, p := range plan {
		steps[i].pat = p
	}
	return steps
}

// attachFilters assigns each filter to the earliest step of the main
// plan at which all its variables are bound. Filters referencing
// variables outside the plan (or expression types the variable walker
// does not know) are returned for post-join evaluation. Pushing a filter
// into the join is sound because variables bind exactly once — later
// OPTIONAL/UNION extensions cannot change a slot the main pattern bound
// — and Env functions and sets are assumed pure.
func attachFilters(plan []rdf.Triple, filters []Expr, c *compiled) ([]planStep, []Expr) {
	steps := toSteps(plan)
	var post []Expr
	for _, f := range filters {
		vars := map[string]bool{}
		if !exprVars(f, vars) {
			post = append(post, f)
			continue
		}
		at := -1
		if len(steps) > 0 {
			need := len(vars)
			have := map[string]bool{}
			for i, st := range steps {
				st.pat.EachVar(func(v string) {
					if vars[v] {
						have[v] = true
					}
				})
				if len(have) == need {
					at = i
					break
				}
			}
		}
		if at < 0 {
			post = append(post, f)
			continue
		}
		steps[at].filters = append(steps[at].filters, f)
	}
	return steps, post
}

// exec carries the per-query state shared by the join recursion and the
// modifier tail (finish). AggregateBindings runs only the tail and leaves
// src nil.
type exec struct {
	c    *compiled
	src  Source
	env  *Env
	view *rowView
}

// extend streams r depth-first through steps[depth:], appending every
// complete solution to out. Pattern matches flow straight into the next
// join level; no per-level row set is materialized.
func (e *exec) extend(r row, steps []planStep, depth int, out []row) []row {
	if depth == len(steps) {
		return append(out, r)
	}
	st := steps[depth]
	concrete := e.substituteRow(st.pat, r)
	e.src.MatchFunc(concrete, func(t rdf.Triple) bool {
		nr, ok := e.unifyRow(concrete, t, r)
		if !ok {
			return true
		}
		if len(st.filters) > 0 && !e.filtersPass(st.filters, nr) {
			return true
		}
		out = e.extend(nr, steps, depth+1, out)
		return true
	})
	return out
}

// substituteRow replaces variables the row binds with their terms. An
// unbound slot holds the variable itself, so every variable position is
// simply read from the row.
func (e *exec) substituteRow(p rdf.Triple, r row) rdf.Triple {
	sub := func(t rdf.Term) rdf.Term {
		if t.IsVar() {
			return r[e.c.slots[t.Value()]]
		}
		return t
	}
	return rdf.T(sub(p.S), sub(p.P), sub(p.O))
}

// unifyRow extends r with the variable assignments implied by matching
// pattern p against ground triple t. The term slice is copied at most
// once, on the first new binding; a repeated variable must take the same
// value in all positions.
func (e *exec) unifyRow(p rdf.Triple, t rdf.Triple, r row) (row, bool) {
	nr := r
	copied := false
	bind := func(pt, gt rdf.Term) bool {
		if !pt.IsVar() {
			return pt.Equal(gt)
		}
		slot := e.c.slots[pt.Value()]
		if prev, ok := nr.get(slot); ok {
			return prev.Equal(gt)
		}
		if !copied {
			nr = slices.Clone(nr)
			copied = true
		}
		nr[slot] = gt
		return true
	}
	if !bind(p.S, t.S) || !bind(p.P, t.P) || !bind(p.O, t.O) {
		return nil, false
	}
	return nr, true
}

// filtersPass reports whether the row satisfies every filter; an
// erroring filter removes the row, per SPARQL semantics for type errors.
func (e *exec) filtersPass(filters []Expr, r row) bool {
	e.view.r = r
	for _, f := range filters {
		v, err := f.Eval(e.view, e.env)
		if err != nil || !v.Truthy() {
			return false
		}
	}
	return true
}

// BindingKey returns a canonical, collision-free key for a binding's
// (variable, term) set, suitable for DISTINCT-style deduplication. Every
// variable-length component is length-prefixed, so no choice of variable
// names or term contents can make two distinct bindings collide.
func BindingKey(b Binding) string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf []byte
	for _, k := range keys {
		buf = strconv.AppendInt(buf, int64(len(k)), 10)
		buf = append(buf, ':')
		buf = append(buf, k...)
		buf = appendTermKey(buf, b[k])
	}
	return string(buf)
}

// appendTermKey appends a length-prefixed encoding of every term field.
func appendTermKey(buf []byte, t rdf.Term) []byte {
	buf = append(buf, byte('0'+t.Kind()))
	for _, part := range [3]string{t.Value(), t.Datatype(), t.Lang()} {
		buf = strconv.AppendInt(buf, int64(len(part)), 10)
		buf = append(buf, ':')
		buf = append(buf, part...)
	}
	return buf
}
