package sparql

import (
	"math"

	"nl2cm/internal/rdf"
)

// planBGP orders the triple patterns of one basic graph pattern for a
// left-deep streaming join. bound names the variables the seed rows may
// already bind (the planner treats them as selective join keys, not as
// wildcards). The input slice is not modified.
//
// The plan is greedy by estimated result size: at each step the
// cheapest remaining pattern is picked, where a pattern's base estimate
// is the source's count with only its concrete positions bound,
// discounted for every already-bound variable position (a bound
// variable turns an enumeration into a per-row lookup). Patterns
// disconnected from the bound set are penalized so cartesian products
// run last. Ties resolve by input position, keeping plans
// deterministic.
func planBGP(patterns []rdf.Triple, bound map[string]bool, src Source) []rdf.Triple {
	if len(patterns) <= 1 {
		return patterns
	}
	isBound := map[string]bool{}
	for v := range bound {
		isBound[v] = true
	}
	remaining := make([]rdf.Triple, len(patterns))
	copy(remaining, patterns)
	plan := make([]rdf.Triple, 0, len(patterns))
	for len(remaining) > 0 {
		best, bestCost := 0, math.Inf(1)
		for i, p := range remaining {
			if cost := estimateCost(p, isBound, src); cost < bestCost {
				best, bestCost = i, cost
			}
		}
		p := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		plan = append(plan, p)
		p.EachVar(func(v string) { isBound[v] = true })
	}
	return plan
}

// estimateCost scores one pattern against the current bound-variable
// set. The base is the index cardinality with concrete positions only;
// each bound variable divides it (the join key makes the per-row match
// far smaller than the whole posting list), and a pattern sharing no
// bound variable at all is pushed behind connected ones by a large
// cartesian-product penalty.
func estimateCost(p rdf.Triple, bound map[string]bool, src Source) float64 {
	wildcard := func(t rdf.Term, name string) rdf.Term {
		if t.IsVar() {
			return rdf.NewVar(name)
		}
		return t
	}
	base := float64(src.CountMatch(rdf.T(
		wildcard(p.S, "s"), wildcard(p.P, "p"), wildcard(p.O, "o"))))
	boundVars, unboundVars := 0, 0
	p.EachVar(func(v string) {
		if bound[v] {
			boundVars++
		} else {
			unboundVars++
		}
	})
	cost := base
	for i := 0; i < boundVars; i++ {
		// Each bound position acts as an equality selection. The divisor
		// is a fixed selectivity guess; exact per-value counts are
		// unknown at plan time because the join value differs per row.
		cost /= 16
	}
	if boundVars == 0 && unboundVars > 0 && len(bound) > 0 {
		// Disconnected from everything bound so far: a cartesian
		// product multiplies the intermediate result by this pattern's
		// full cardinality. Schedule after connected patterns.
		cost = cost*1e6 + 1e6
	}
	return cost
}

// compiled is the per-query slot table: a dense index over every
// variable that a triple pattern anywhere in the query can bind, plus the
// aggregate aliases. vars holds each slot's own variable term, so it is
// also the all-unbound row.
type compiled struct {
	slots map[string]int
	vars  []rdf.Term
}

// compileQuery assigns slots in first-appearance order to the pattern
// variables, then to the aggregate aliases of spec (nil when the query
// has no grouping step). Aliases occupy slots of their own so that
// HAVING, ORDER BY and projection address them like pattern variables.
func compileQuery(q *Query, spec *aggSpec) *compiled {
	c := &compiled{slots: map[string]int{}}
	add := func(patterns []rdf.Triple) {
		for _, p := range patterns {
			p.EachVar(c.addVar)
		}
	}
	add(q.Where)
	for _, block := range q.Unions {
		for _, alt := range block {
			add(alt)
		}
	}
	for _, opt := range q.Optionals {
		add(opt)
	}
	if spec != nil {
		for _, a := range spec.aggs {
			c.addVar(a.As)
		}
	}
	return c
}

// addVar gives v a slot unless it already has one.
func (c *compiled) addVar(v string) {
	if _, ok := c.slots[v]; !ok {
		c.slots[v] = len(c.vars)
		c.vars = append(c.vars, rdf.NewVar(v))
	}
}

// projection marks the slots that survive projection onto vars, or
// returns nil when every slot does (SELECT *). Projected variables no
// pattern binds have no slot and stay absent.
func (c *compiled) projection(vars []string) []bool {
	if len(vars) == 0 {
		return nil
	}
	keep := make([]bool, len(c.vars))
	for _, v := range vars {
		if slot, ok := c.slots[v]; ok {
			keep[slot] = true
		}
	}
	return keep
}

// exprVars collects the variable names referenced by a filter
// expression. ok is false for expression types the walker does not know,
// in which case the caller must not push the filter into the join.
func exprVars(e Expr, out map[string]bool) bool {
	switch x := e.(type) {
	case *VarExpr:
		out[x.Name] = true
	case *LitExpr:
	case *NotExpr:
		return exprVars(x.X, out)
	case *BinExpr:
		return exprVars(x.L, out) && exprVars(x.R, out)
	case *CallExpr:
		for _, a := range x.Args {
			if !exprVars(a, out) {
				return false
			}
		}
	case *InExpr:
		if !exprVars(x.X, out) {
			return false
		}
		for _, it := range x.List {
			if !exprVars(it, out) {
				return false
			}
		}
	default:
		return false
	}
	return true
}
