// Package ontology provides the general-knowledge substrate of NL2CM. The
// paper evaluates against the public LinkedGeoData and DBPedia ontologies;
// this package substitutes embedded synthetic ontologies with the same
// interface obligations: RDF triples over named entities and classes, a
// label index for aligning natural-language phrases with entities and
// relations, and deliberately ambiguous entries (several places named
// "Buffalo") that exercise the system's disambiguation dialogues.
package ontology

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"nl2cm/internal/rdf"
)

// NS is the namespace of all ontology IRIs.
const NS = "http://nl2cm.org/onto/"

// Well-known predicates.
var (
	PredInstanceOf = rdf.NewIRI(NS + "instanceOf")
	PredSubClassOf = rdf.NewIRI(NS + "subClassOf")
	PredLabel      = rdf.NewIRI(NS + "label")
	PredNear       = rdf.NewIRI(NS + "near")
	PredLocatedIn  = rdf.NewIRI(NS + "locatedIn")
	PredContains   = rdf.NewIRI(NS + "contains")
	PredRichIn     = rdf.NewIRI(NS + "richIn")
	PredHasFeature = rdf.NewIRI(NS + "hasFeature")
	PredMadeBy     = rdf.NewIRI(NS + "madeBy")
	PredPriceRange = rdf.NewIRI(NS + "priceRange")
	PredServes     = rdf.NewIRI(NS + "serves")
	PredGoodFor    = rdf.NewIRI(NS + "goodFor")
)

// E builds an entity IRI in the ontology namespace.
func E(local string) rdf.Term { return rdf.NewIRI(NS + local) }

// Candidate is one possible alignment of an NL phrase with an ontology
// entity or relation.
type Candidate struct {
	Term rdf.Term
	// Label is the entity's primary label.
	Label string
	// Description disambiguates homonyms for the user ("city in New
	// York, USA").
	Description string
	// Score ranks candidates; higher is better. Scores combine match
	// quality with learned user feedback (see qgen).
	Score float64
	// IsClass reports whether the candidate is a class rather than an
	// individual.
	IsClass bool
}

// Ontology is a labeled triple store with lookup indexes. The store is
// mutable (epoch-snapshot sharded, see rdf.ShardedStore); the label,
// word, primary-label and class indexes are derived from the store per
// epoch, so a triple batch landed through the daemon is resolvable by
// Lookup/ResolveEntity on the very next call — nothing answers from a
// construction-time cache anymore.
type Ontology struct {
	// Name identifies the ontology in admin-mode traces ("GeoOntology").
	Name  string
	Store *rdf.ShardedStore

	// Registration-time state below is structural knowledge that plain
	// triples cannot carry; it augments (never replaces) the per-epoch
	// derived index.

	// descriptions holds per-entity disambiguation strings.
	descriptions map[rdf.Term]string
	// relations maps lower-cased relation lemmas ("near", "located in")
	// to predicates.
	relations map[string]rdf.Term
	// regClasses records classes registered via AddClass, which need no
	// subClassOf/instanceOf participation to count as classes.
	regClasses map[rdf.Term]bool
	// aliases are extra lookup labels (Alias) with no store triple.
	aliases []aliasEntry
	// regVersion bumps on every registration-state mutation so the
	// derived index is invalidated by Alias/AddClass as well as by a
	// store epoch change.
	regVersion atomic.Uint64

	// derived is the index for one (store epoch, regVersion) pair.
	// rebuildMu serializes rebuilds: every reader that finds derived
	// stale waits on it until the one rebuild finishes, so a write
	// stalls each lookup that follows it for a full rebuild.
	derived   atomic.Pointer[derivedIndex]
	rebuildMu sync.Mutex
}

type aliasEntry struct {
	label string
	term  rdf.Term
}

// derivedIndex is an immutable lookup index computed from one store
// snapshot plus the registration state at one version.
type derivedIndex struct {
	epoch      uint64
	regVersion uint64
	// labels maps normalized full labels to entities (exact matches).
	labels map[string][]rdf.Term
	// words maps individual label words to entities (partial matches).
	words map[string][]rdf.Term
	// primary caches each labeled term's primary label (the
	// lexicographically smallest), so candidate construction during
	// Lookup does not scan the store per term.
	primary map[rdf.Term]string
	// classes records which terms are classes: registered ones plus any
	// term participating in subClassOf or appearing as an instanceOf
	// object.
	classes map[rdf.Term]bool
}

// New returns an empty ontology with the given name.
func New(name string) *Ontology {
	return &Ontology{
		Name:         name,
		Store:        rdf.NewShardedStore(0),
		descriptions: map[rdf.Term]string{},
		relations:    map[string]rdf.Term{},
		regClasses:   map[rdf.Term]bool{},
	}
}

// Snapshot pins the current store epoch. Consumers that issue several
// reads per query (the crowd engine, qgen's degree probes, the sparql
// evaluator) hold one Snapshot so concurrent batches cannot shift the
// data mid-query.
func (o *Ontology) Snapshot() *rdf.Snapshot { return o.Store.Snapshot() }

// Epoch returns the store's current published epoch.
func (o *Ontology) Epoch() uint64 { return o.Store.Epoch() }

// idx returns the derived index for the current (epoch, regVersion),
// rebuilding it if either moved since the last rebuild.
func (o *Ontology) idx() *derivedIndex {
	snap := o.Store.Snapshot()
	rv := o.regVersion.Load()
	if d := o.derived.Load(); d != nil && d.epoch == snap.Epoch() && d.regVersion == rv {
		return d
	}
	return o.rebuild()
}

// rebuild recomputes the derived index from the latest snapshot and
// registration state. Concurrent callers rebuild once: the first takes
// rebuildMu and rebuilds while the others wait on it, then find the
// fresh index published and return it.
func (o *Ontology) rebuild() *derivedIndex {
	o.rebuildMu.Lock()
	defer o.rebuildMu.Unlock()
	// Re-fetch inside the lock: another goroutine may have rebuilt, and
	// the snapshot may have advanced while we waited.
	snap := o.Store.Snapshot()
	rv := o.regVersion.Load()
	if d := o.derived.Load(); d != nil && d.epoch == snap.Epoch() && d.regVersion == rv {
		return d
	}
	d := &derivedIndex{
		epoch:      snap.Epoch(),
		regVersion: rv,
		labels:     map[string][]rdf.Term{},
		words:      map[string][]rdf.Term{},
		primary:    map[rdf.Term]string{},
		classes:    make(map[rdf.Term]bool, len(o.regClasses)),
	}
	for c := range o.regClasses {
		d.classes[c] = true
	}
	snap.MatchFunc(rdf.T(rdf.NewVar("s"), PredSubClassOf, rdf.NewVar("c")), func(t rdf.Triple) bool {
		d.classes[t.S] = true
		d.classes[t.O] = true
		return true
	})
	snap.MatchFunc(rdf.T(rdf.NewVar("s"), PredInstanceOf, rdf.NewVar("c")), func(t rdf.Triple) bool {
		d.classes[t.O] = true
		return true
	})
	// Label triples feed the exact, word and primary indexes. Sort for
	// a deterministic index regardless of shard iteration order.
	type lbl struct {
		term  rdf.Term
		label string
	}
	var lbls []lbl
	snap.MatchFunc(rdf.T(rdf.NewVar("s"), PredLabel, rdf.NewVar("l")), func(t rdf.Triple) bool {
		if t.O.IsLiteral() {
			lbls = append(lbls, lbl{t.S, t.O.Value()})
		}
		return true
	})
	sort.Slice(lbls, func(i, j int) bool {
		if lbls[i].label != lbls[j].label {
			return lbls[i].label < lbls[j].label
		}
		return lbls[i].term.Compare(lbls[j].term) < 0
	})
	for _, l := range lbls {
		d.index(l.label, l.term)
		if prev, ok := d.primary[l.term]; !ok || l.label < prev {
			d.primary[l.term] = l.label
		}
	}
	// Aliases are lookup-only: they never set a primary label.
	for _, a := range o.aliases {
		d.index(a.label, a.term)
	}
	o.derived.Store(d)
	return d
}

func (d *derivedIndex) index(label string, term rdf.Term) {
	key := normalize(label)
	d.labels[key] = appendUnique(d.labels[key], term)
	// Index individual words separately (weaker matches), so "Buffalo"
	// finds "Buffalo, NY" without full-label matches being diluted.
	words := strings.Fields(key)
	if len(words) > 1 {
		for _, w := range words {
			if len(w) > 2 {
				d.words[w] = appendUnique(d.words[w], term)
			}
		}
	}
}

// AddEntity registers an entity with its label, description and class.
// The label lands in the store, so the lookup index derives it on the
// next epoch rebuild.
func (o *Ontology) AddEntity(local, label, description string, class rdf.Term) rdf.Term {
	e := E(local)
	o.Store.AddTriple(e, PredLabel, rdf.NewLiteral(label))
	if class.Value() != "" {
		o.Store.AddTriple(e, PredInstanceOf, class)
	}
	o.descriptions[e] = description
	return e
}

// AddClass registers a class term with a label and optional superclass.
func (o *Ontology) AddClass(local, label string, super rdf.Term) rdf.Term {
	c := E(local)
	o.Store.AddTriple(c, PredLabel, rdf.NewLiteral(label))
	if super.Value() != "" {
		o.Store.AddTriple(c, PredSubClassOf, super)
	}
	o.regClasses[c] = true
	o.regVersion.Add(1)
	return c
}

// AddRelation registers NL surface lemmas for a predicate.
func (o *Ontology) AddRelation(pred rdf.Term, lemmas ...string) {
	for _, l := range lemmas {
		o.relations[strings.ToLower(l)] = pred
	}
}

// Add registers an arbitrary fact triple.
func (o *Ontology) Add(s, p, oTerm rdf.Term) { o.Store.AddTriple(s, p, oTerm) }

// Alias adds an extra lookup label for an existing term.
func (o *Ontology) Alias(term rdf.Term, label string) {
	o.aliases = append(o.aliases, aliasEntry{label, term})
	o.regVersion.Add(1)
}

func appendUnique(ts []rdf.Term, t rdf.Term) []rdf.Term {
	for _, x := range ts {
		if x.Equal(t) {
			return ts
		}
	}
	return append(ts, t)
}

func normalize(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	s = strings.ReplaceAll(s, ",", " ")
	return strings.Join(strings.Fields(s), " ")
}

// Description returns the disambiguation string for an entity.
func (o *Ontology) Description(t rdf.Term) string { return o.descriptions[t] }

// Label returns the primary label of a term, falling back to the IRI
// local name. Labels added by any means — registration or a store
// batch — answer from the current epoch's derived index.
func (o *Ontology) Label(t rdf.Term) string {
	if l, ok := o.idx().primary[t]; ok {
		return l
	}
	return t.Local()
}

// IsClass reports whether the term is a class in the current epoch.
func (o *Ontology) IsClass(t rdf.Term) bool { return o.idx().classes[t] }

// Lookup aligns an NL phrase with ontology terms, returning candidates
// ranked by match quality: exact normalized label match scores 1.0,
// full-phrase prefix matches 0.8, head-word matches 0.6. Deterministic
// order: score desc, then term order.
func (o *Ontology) Lookup(phrase string) []Candidate {
	key := normalize(phrase)
	if key == "" {
		return nil
	}
	d := o.idx()
	scored := map[rdf.Term]float64{}
	consider := func(ts []rdf.Term, score float64) {
		for _, t := range ts {
			if scored[t] < score {
				scored[t] = score
			}
		}
	}
	consider(d.labels[key], 1.0)
	// singular fallback: "places" -> "place"
	if strings.HasSuffix(key, "s") {
		consider(d.labels[strings.TrimSuffix(key, "s")], 0.9)
	}
	// word-index fallback: the phrase is one word of a longer label
	consider(d.words[key], 0.6)
	// word-by-word fallback: some word of the phrase is a known label
	for _, w := range strings.Fields(key) {
		if w == key {
			continue
		}
		consider(d.labels[w], 0.6)
		consider(d.words[w], 0.4)
	}
	out := make([]Candidate, 0, len(scored))
	for t, s := range scored {
		label := d.primary[t]
		if label == "" {
			label = t.Local()
		}
		out = append(out, Candidate{
			Term:        t,
			Label:       label,
			Description: o.descriptions[t],
			Score:       s,
			IsClass:     d.classes[t],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Term.Compare(out[j].Term) < 0
	})
	return out
}

// ResolveEntity resolves a phrase that exactly (after normalization)
// labels exactly one non-class term — the condition under which the
// phrase is an unambiguous, feedback-independent entity mention. It is
// the shape-canonicalization hook of the plan cache (qcache): ambiguous
// labels like "Buffalo" and class words like "restaurant" return false
// and stay literal in a question's shape key. Resolution runs against
// the current epoch's index, so a freshly inserted entity resolves on
// the next call.
func (o *Ontology) ResolveEntity(phrase string) (rdf.Term, bool) {
	d := o.idx()
	ts := d.labels[normalize(phrase)]
	if len(ts) != 1 || d.classes[ts[0]] {
		return rdf.Term{}, false
	}
	return ts[0], true
}

// LookupRelation aligns a relation lemma ("near", "in", "visit") with a
// predicate, if the ontology models it.
func (o *Ontology) LookupRelation(lemma string) (rdf.Term, bool) {
	p, ok := o.relations[strings.ToLower(lemma)]
	return p, ok
}

// Classes returns all classes of the current epoch, sorted.
func (o *Ontology) Classes() []rdf.Term {
	d := o.idx()
	out := make([]rdf.Term, 0, len(d.classes))
	for c := range d.classes {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// InstancesOf returns the instances of a class, including instances of
// its subclasses (one transitive closure over subClassOf), within one
// pinned snapshot.
func (o *Ontology) InstancesOf(class rdf.Term) []rdf.Term {
	return o.InstancesOfAt(o.Snapshot(), class)
}

// InstancesOfAt is InstancesOf evaluated against a caller-pinned
// snapshot, for consumers (the crowd engine) that must keep several
// reads on one epoch.
func (o *Ontology) InstancesOfAt(snap *rdf.Snapshot, class rdf.Term) []rdf.Term {
	seen := map[rdf.Term]bool{}
	var out []rdf.Term
	var visit func(c rdf.Term)
	visited := map[rdf.Term]bool{}
	visit = func(c rdf.Term) {
		if visited[c] {
			return
		}
		visited[c] = true
		for _, inst := range snap.Subjects(PredInstanceOf, c) {
			if !seen[inst] {
				seen[inst] = true
				out = append(out, inst)
			}
		}
		for _, sub := range snap.Subjects(PredSubClassOf, c) {
			visit(sub)
		}
	}
	visit(class)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// MaterializeInference adds the subclass closure to the store: for every
// (s instanceOf C) and superclass S of C, (s instanceOf S) is added, so
// the plain BGP matcher answers "instanceOf Place" for parks and hotels.
// Call it once after the ontology data is loaded.
func (o *Ontology) MaterializeInference() {
	snap := o.Snapshot()
	// superclasses: direct subClassOf edges.
	super := map[rdf.Term][]rdf.Term{}
	snap.MatchFunc(rdf.T(rdf.NewVar("c"), PredSubClassOf, rdf.NewVar("s")), func(t rdf.Triple) bool {
		super[t.S] = append(super[t.S], t.O)
		return true
	})
	var allSupers func(c rdf.Term, seen map[rdf.Term]bool) []rdf.Term
	allSupers = func(c rdf.Term, seen map[rdf.Term]bool) []rdf.Term {
		var out []rdf.Term
		for _, s := range super[c] {
			if seen[s] {
				continue
			}
			seen[s] = true
			out = append(out, s)
			out = append(out, allSupers(s, seen)...)
		}
		return out
	}
	type inst struct{ s, c rdf.Term }
	var pairs []inst
	snap.MatchFunc(rdf.T(rdf.NewVar("s"), PredInstanceOf, rdf.NewVar("c")), func(t rdf.Triple) bool {
		pairs = append(pairs, inst{t.S, t.O})
		return true
	})
	for _, p := range pairs {
		for _, s := range allSupers(p.c, map[rdf.Term]bool{}) {
			o.Store.AddTriple(p.s, PredInstanceOf, s)
		}
	}
}

// Merge combines several ontologies into one view (the demo uses
// LinkedGeoData and DBPedia together). Later ontologies win on
// description conflicts. Label/word/class indexes are not copied — they
// re-derive from the merged store's first epoch.
func Merge(name string, parts ...*Ontology) *Ontology {
	m := New(name)
	for _, p := range parts {
		for _, t := range p.Store.All() {
			m.Store.MustAdd(t)
		}
		for t, desc := range p.descriptions {
			m.descriptions[t] = desc
		}
		for c := range p.regClasses {
			m.regClasses[c] = true
		}
		m.aliases = append(m.aliases, p.aliases...)
		for k, v := range p.relations {
			m.relations[k] = v
		}
	}
	m.regVersion.Add(1)
	return m
}
