package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// ns is the ontology namespace every generated IRI lives in.
const ns = "http://nl2cm.org/onto/"

// The world: 2,000 hotels located in Buffalo, NY, each near four places
// of its own. Labels are three words plus a kind ("Maple Ridge East
// Hotel", "Maple Ridge East Park"), so every label is unique, resolves
// to exactly one entity and tokenizes to four tokens.
var (
	worldFirst = []string{"Maple", "Cedar", "Willow", "Birch", "Aspen", "Juniper", "Hazel", "Alder",
		"Laurel", "Rowan", "Sequoia", "Magnolia", "Hickory", "Linden", "Sycamore", "Chestnut",
		"Spruce", "Poplar", "Cypress", "Elm"}
	worldSecond = []string{"Ridge", "Brook", "Harbor", "Meadow", "Summit", "Hollow", "Crest", "Grove",
		"Haven", "Glen", "Bluff", "Creek", "Vale", "Point", "Landing", "Terrace",
		"Shore", "Field", "Crossing", "Springs"}
	worldThird = []string{"East", "West", "North", "South", "Grand"}
	// executeFirst extends worldFirst for the hotels only execute-fresh
	// loads. No word is in the parser's lexicon or ends in a suffix its
	// tagger reads (-s, -ing, -ed, -ly, -er, -al, ...), so their execute
	// questions share the world hotels' question shape (a guard checks
	// that every execute-fresh reply is a plan-cache rebind).
	executeFirst = []string{"Oak", "Pine", "Fir", "Yew", "Larch", "Hemlock", "Walnut", "Beech",
		"Hawthorn", "Acacia", "Banyan", "Balsa", "Dogwood", "Ebony", "Ginkgo", "Hornbeam",
		"Jacaranda", "Kapok", "Locust", "Mahogany",
		"Teak", "Mango", "Guava", "Baobab", "Tupelo", "Catalpa", "Boxwood", "Redwood",
		"Ironwood", "Basswood", "Rosewood", "Kauri", "Rimu", "Totara", "Matai", "Nikau",
		"Karri", "Jarrah", "Wandoo", "Tamarack"}
)

// placeKind is one of the four places every world hotel is near.
type placeKind struct{ suffix, class string }

var placeKinds = []placeKind{
	{"Park", "Park"}, {"Gallery", "Museum"}, {"Garden", "Park"}, {"Grill", "Restaurant"},
}

// worldHotels is the number of hotels in the world.
const worldHotels = 2000

// executeCandidates is the number of hotels execute-fresh chooses from:
// the world's labels plus 4,000 of its own with the same shape. It loads
// only the candidates it can ask about (see executeStream), 3,642
// hotels, about 7 times what a window asks about at the throughput in
// README.md, so a faster /execute still finds never-asked hotels. The
// other workloads load only the world.
const executeCandidates = worldHotels + 4000

// maxBatchTriples caps the triples of one POST /api/store body.
const maxBatchTriples = 1000

// hotelStem returns the three-word stem of hotel i ("Maple Ridge
// East"); the hotel's label appends "Hotel", its places their kind.
// Hotels from worldHotels on take their first word from executeFirst.
func hotelStem(i int) string {
	third := i % len(worldThird)
	second := (i / len(worldThird)) % len(worldSecond)
	first := i / (len(worldThird) * len(worldSecond))
	word := ""
	if first < len(worldFirst) {
		word = worldFirst[first]
	} else {
		word = executeFirst[first-len(worldFirst)]
	}
	return word + " " + worldSecond[second] + " " + worldThird[third]
}

func hotelLabel(i int) string              { return hotelStem(i) + " Hotel" }
func placeLabel(i int, k placeKind) string { return hotelStem(i) + " " + k.suffix }

// local turns a label into its IRI local name ("Maple_Ridge_East_Hotel").
func local(label string) string { return strings.ReplaceAll(label, " ", "_") }

func iri(localName string) string { return "<" + ns + localName + ">" }

// triple renders one N-Triples line.
func triple(s, p, o string) string { return s + " " + iri(p) + " " + o + " .\n" }

func literal(s string) string { return fmt.Sprintf("%q", s) }

// hotelTriples returns the 24 triples of hotel i: the hotel with
// its label, classes and city, and four places near it (both ways).
func hotelTriples(i int) []string {
	h := iri(local(hotelLabel(i)))
	out := []string{
		triple(h, "label", literal(hotelLabel(i))),
		triple(h, "instanceOf", iri("Hotel")),
		triple(h, "instanceOf", iri("Place")),
		triple(h, "locatedIn", iri("Buffalo,_NY")),
	}
	for _, k := range placeKinds {
		p := iri(local(placeLabel(i, k)))
		out = append(out,
			triple(p, "label", literal(placeLabel(i, k))),
			triple(p, "instanceOf", iri(k.class)),
			triple(p, "instanceOf", iri("Place")),
			triple(p, "near", h),
			triple(h, "near", p))
	}
	return out
}

// firstHotels returns the indices of the first n hotels.
func firstHotels(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// hotelBatches renders the hotels as N-Triples bodies of at most
// maxBatchTriples triples each, in the given order. Callers pass a
// fixed list: the loaded content does not depend on the seed, only
// which entities the streams name.
func hotelBatches(hotels []int) []string {
	var batches []string
	var b strings.Builder
	n := 0
	for _, i := range hotels {
		ts := hotelTriples(i)
		if n+len(ts) > maxBatchTriples {
			batches = append(batches, b.String())
			b.Reset()
			n = 0
		}
		for _, t := range ts {
			b.WriteString(t)
		}
		n += len(ts)
	}
	if n > 0 {
		batches = append(batches, b.String())
	}
	return batches
}

// writeEntity is one hotel the write-mix workload inserts: label words
// come from a pseudo-word vocabulary no read question uses, so a write
// cannot change any read's translation.
type writeEntity struct {
	label  string   // the hotel's label
	places []string // labels of its two places
}

func (e writeEntity) local() string { return local(e.label) }

// triples returns the 13 triples that insert (or delete) the entity.
func (e writeEntity) triples() string {
	h := iri(e.local())
	var b strings.Builder
	b.WriteString(triple(h, "label", literal(e.label)))
	b.WriteString(triple(h, "instanceOf", iri("Hotel")))
	b.WriteString(triple(h, "instanceOf", iri("Place")))
	for _, pl := range e.places {
		p := iri(local(pl))
		b.WriteString(triple(p, "label", literal(pl)))
		b.WriteString(triple(p, "instanceOf", iri("Park")))
		b.WriteString(triple(p, "instanceOf", iri("Place")))
		b.WriteString(triple(p, "near", h))
		b.WriteString(triple(h, "near", p))
	}
	return b.String()
}

// writeEntities generates n write entities from the seed. Every word is
// a fresh pseudo-word: not in taken (the lower-cased words of all read
// questions) and not used twice.
func writeEntities(seed int64, n int, taken map[string]bool) []writeEntity {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_0f_7717e5))
	used := map[string]bool{}
	onsets := []string{"b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "br", "dr", "kr", "tr", "sk", "zv"}
	vowels := []string{"a", "e", "i", "o", "u"}
	codas := []string{"", "n", "r", "l", "x", "sk", "nd"}
	word := func() string {
		for {
			var b strings.Builder
			for s := 0; s < 3; s++ {
				b.WriteString(onsets[rng.Intn(len(onsets))])
				b.WriteString(vowels[rng.Intn(len(vowels))])
			}
			b.WriteString(codas[rng.Intn(len(codas))])
			w := b.String()
			if !used[w] && !taken[w] {
				used[w] = true
				return strings.ToUpper(w[:1]) + w[1:]
			}
		}
	}
	out := make([]writeEntity, n)
	for i := range out {
		a, b := word(), word()
		out[i] = writeEntity{
			label:  a + " " + b + " " + word(),
			places: []string{a + " " + b + " " + word(), a + " " + b + " " + word()},
		}
	}
	return out
}

// questionWords returns the lower-cased word set of the questions.
func questionWords(qs []string) map[string]bool {
	out := map[string]bool{}
	for _, q := range qs {
		for _, w := range strings.FieldsFunc(strings.ToLower(q), func(r rune) bool {
			return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '\'' || r == '-')
		}) {
			out[w] = true
		}
	}
	return out
}
