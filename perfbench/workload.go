package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"nl2cm"
)

// op is what one request does.
type op int

const (
	opTranslate op = iota // POST /api/translate
	opExecute             // POST /execute
	opWrite               // POST /api/store, then a visibility probe
)

// request is one generated input. Every field derives from the seed and
// the request's position in the stream.
type request struct {
	op       op
	question string
	backend  string // opTranslate
	hotel    int    // opExecute: the world hotel the question names
	write    int    // opWrite: position in the write sequence
}

// workload is one benchmark traffic mix.
type workload struct {
	name string
	// flags are the daemon's command-line flags besides -addr.
	flags []string
	// clients is the number of closed-loop client connections.
	clients int
	// warmup runs after the world loads, before the measured window.
	warmup []request
	// item returns the i-th measured request; false once the stream is
	// exhausted (execute-fresh runs out of never-asked hotels).
	item func(i int) (request, bool)
	// replayN is how many of the stream's first requests the traced
	// replay re-runs in-process.
	replayN int
}

// Fixed workload parameters.
const (
	variantsPerTemplate = 20 // world entities each read template is asked about
	writeEvery          = 31 // write-mix: one write per 30 reads
	writeKeep           = 4  // a write deletes the hotel inserted this many writes earlier
	writeCycle          = 32 // distinct write hotels; write j inserts hotel j mod writeCycle
	costStrata          = 64 // execute-fresh hotels are interleaved across this many cost strata
	warmupHotels        = 16 // execute-fresh hotels reserved for warm-up, from evenly spaced strata
	crowdSize           = 100000
)

// readTemplate is a corpus question shape re-asked about world entities:
// the same token structure as the corpus original, so the plan cache
// serves the variants by re-binding the entity slot. Every template
// binds the entity it names (set-up checks it). Many shapes keep rebinds
// rare within one write-mix cycle (see README.md).
type readTemplate struct {
	text string
	kind string // "Hotel" or a placeKind suffix
}

var readTemplates = []readTemplate{
	{"What are the most interesting places near %s, we should visit in the fall?", "Hotel"},
	{"What attractions near %s are fun for children?", "Hotel"},
	{"What romantic restaurants near %s do you recommend?", "Hotel"},
	{"Where do families eat near %s?", "Park"},
	{"Which dish at %s is overrated?", "Grill"},
	{"Is the %s safe for toddlers?", "Gallery"},
	{"Should my kids swim at %s in the summer?", "Garden"},
	{"Are the %s open in the winter?", "Gallery"},
	{"Is %s worth seeing in the winter?", "Park"},
	{"Which tours do tourists take from Buffalo to %s?", "Park"},
	{"Which show at the %s is overrated?", "Hotel"},
	{"Do people enjoy the %s at night?", "Garden"},
	{"Should we order the bean chili at %s?", "Grill"},
	{"Is the top floor of the %s scary?", "Hotel"},
}

// executeTemplate asks crowd questions whose every fact names a place
// near the hotel, so a hotel asked once yields only never-asked tasks.
// The first subclause is a top-5 over the hotel's four places, so the
// second always has bindings. A template whose first subclause can
// reject every binding (a threshold, as in "What romantic restaurants
// near … do you recommend?") lets the second fall back to open-variable
// expansion over a shared set of 50 places, and re-ask them across
// requests.
const executeTemplate = "What are the most interesting places near %s, we should visit in the %s?"

// executeSeasons are the seasons execute-fresh asks about; all four
// share one question shape, so the plan cache serves them by rebinding.
var executeSeasons = []string{"Fall", "Winter", "Spring", "Summer"}

// probeTemplate is the question a writer asks right after its write; it
// must bind the newly inserted hotel.
const probeTemplate = "What are the most interesting places near %s, we should visit in the fall?"

// mix hashes (seed, stream, i) to a uniform 64-bit value, so every
// request is a pure function of the seed and its position.
func mix(seed int64, stream string, i int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", seed, stream, i)
	x := h.Sum64()
	// splitmix64 finalizer: FNV alone mixes low bits poorly.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// entityLabel names world entity hotel/kind.
func entityLabel(hotel int, kind string) string {
	if kind == "Hotel" {
		return hotelLabel(hotel)
	}
	for _, k := range placeKinds {
		if k.suffix == kind {
			return placeLabel(hotel, k)
		}
	}
	panic("unknown place kind " + kind)
}

// hotelIndex is the inverse of hotelStem.
func hotelIndex(first, second, third int) int {
	return (first*len(worldSecond)+second)*len(worldThird) + third
}

// readPool returns the distinct read questions: every supported corpus
// question plus variantsPerTemplate world-entity variants of each read
// template, and for each variant the IRI local name of the entity it
// names. The seed picks the entities, stratified so every template names
// each first and each second label word exactly once: label words change
// how a question parses, so an unstratified draw would change the pool's
// cost from seed to seed.
func readPool(seed int64) ([]string, map[string]string) {
	var qs []string
	for _, q := range nl2cm.Corpus() {
		if q.Supported {
			qs = append(qs, q.Text)
		}
	}
	entities := map[string]string{}
	rng := rand.New(rand.NewSource(seed))
	for _, t := range readTemplates {
		firsts, seconds := rng.Perm(len(worldFirst)), rng.Perm(len(worldSecond))
		for j := 0; j < variantsPerTemplate; j++ {
			h := hotelIndex(firsts[j], seconds[j], rng.Intn(len(worldThird)))
			q := fmt.Sprintf(t.text, entityLabel(h, t.kind))
			qs = append(qs, q)
			entities[q] = local(entityLabel(h, t.kind))
		}
	}
	return qs, entities
}

// readStream builds the read stream over the questions: backends in
// round-robin order, each question asked once per backend in a row, the
// questions in a seeded order that is repeated. Every pass covers every
// (question, backend) pair exactly once, so a run's mix does not depend
// on the seed beyond the pool itself.
func readStream(seed int64, backends, questions []string) func(i int) request {
	qs := append([]string(nil), questions...)
	rand.New(rand.NewSource(seed+3)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return func(i int) request {
		return request{op: opTranslate, backend: backends[i%len(backends)], question: qs[(i/len(backends))%len(qs)]}
	}
}

// readWarmup asks every (question, backend) pair once, in a seeded
// order, so every shape the stream names is cached before the window.
func readWarmup(seed int64, backends, questions []string) []request {
	var out []request
	for _, q := range questions {
		for _, b := range backends {
			out = append(out, request{op: opTranslate, backend: b, question: q})
		}
	}
	rng := rand.New(rand.NewSource(seed + 1))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Execute-fresh asks only about (hotel, season) pairs whose threshold
// subclause is expected to take between executeMinCost and
// executeMaxCost member answers to decide. A request's crowd cost
// depends on how close its four threshold tasks' answer means sit to the
// 0.1 threshold and spans three orders of magnitude over all pairs; on
// that whole range a latency percentile falls where the distribution is
// thin, and moved by a quarter from run to run. Within the band a
// request takes about 15-60 ms.
const (
	executeMinCost = 12000
	executeMaxCost = 96000
)

// seasonCost is one season a candidate hotel can be asked about, with
// the expected member answers it takes.
type seasonCost struct {
	season string
	cost   float64
}

// executeChoices returns, for every candidate hotel, the seasons whose
// expected cost lies in the band, in executeSeasons order; a hotel with
// none is never asked and not loaded. It depends on no seed.
var executeChoices = sync.OnceValue(func() [][]seasonCost {
	c := nl2cm.NewCrowd(crowdSize, 7) // the daemon's default crowd seed
	c.Truth = nl2cm.DemoTruth()
	out := make([][]seasonCost, executeCandidates)
	for h := range out {
		for _, season := range executeSeasons {
			cost := 0.0
			for _, k := range placeKinds {
				// The threshold subclause's fact key, as the crowd engine
				// writes it: "[] in <Season> & [] visit <place>". Sequential
				// sampling needs about 11/(mean-0.1)² answers to decide it.
				m := answerMean(c.Mean("[] in " + season + " & [] visit " + local(placeLabel(h, k))))
				cost += min(float64(crowdSize), 11/((m-0.1)*(m-0.1)))
			}
			if cost >= executeMinCost && cost < executeMaxCost {
				out[h] = append(out[h], seasonCost{season, cost})
			}
		}
	}
	return out
})

// executeLoaded returns the hotels execute-fresh loads: every candidate
// with a season in the cost band.
func executeLoaded() []int {
	var out []int
	for h, ch := range executeChoices() {
		if len(ch) > 0 {
			out = append(out, h)
		}
	}
	return out
}

// executeStream returns execute-fresh's warm-up requests and its
// measured sequence: every loaded hotel once, each with a season the
// seed picks from its in-band seasons. Hotels are sorted into strata by
// expected cost, and the sequence takes one hotel from every stratum
// per round, so every prefix a window reaches holds the same mix of
// cheaper and dearer requests.
func executeStream(seed int64) (warm, measured []request) {
	rng := rand.New(rand.NewSource(seed + 2))
	type cand struct {
		req  request
		cost float64
	}
	var cands []cand
	for h, ch := range executeChoices() {
		if len(ch) == 0 {
			continue
		}
		sc := ch[rng.Intn(len(ch))]
		q := fmt.Sprintf(executeTemplate, hotelLabel(h), strings.ToLower(sc.season))
		cands = append(cands, cand{request{op: opExecute, hotel: h, question: q}, sc.cost})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].cost < cands[j].cost })
	strata := make([][]request, costStrata)
	for i, cd := range cands {
		s := i * costStrata / len(cands)
		strata[s] = append(strata[s], cd.req)
	}
	for s, st := range strata {
		rng.Shuffle(len(st), func(i, j int) { st[i], st[j] = st[j], st[i] })
		if s%(costStrata/warmupHotels) == 0 {
			warm = append(warm, st[0])
			strata[s] = st[1:]
		}
	}
	for round := 0; ; round++ {
		added := false
		for _, s := range rng.Perm(costStrata) {
			if round < len(strata[s]) {
				measured = append(measured, strata[s][round])
				added = true
			}
		}
		if !added {
			return warm, measured
		}
	}
}

// answerNoise is the crowd's default per-member answer spread
// (crowd.Crowd.Noise left at 0).
const answerNoise = 0.15

// answerMean returns the mean of the member answers to a fact whose
// latent mean is m. A member answers m plus triangular noise on
// [-2·answerNoise, 2·answerNoise], clamped to [0, 1], so near 0 the
// answers average above m: a fact with latent mean 0.05 is answered
// about 0.08 on average, close to the 0.1 threshold and costly to
// decide. The integral is a midpoint sum.
func answerMean(m float64) float64 {
	const steps = 400
	a := 2 * answerNoise
	sum := 0.0
	for i := 0; i < steps; i++ {
		x := -a + (float64(i)+0.5)*2*a/steps
		w := (a - math.Abs(x)) / (a * a) * 2 * a / steps // triangular density × step
		sum += w * min(1, max(0, m+x))
	}
	return sum
}

// buildWorkload assembles the named workload from the seed and the read
// questions (nil for execute-fresh, which asks none).
func buildWorkload(name string, seed int64, backends, questions []string) (*workload, error) {
	read := readStream(seed, backends, questions)
	switch name {
	case "read-hot":
		return &workload{
			name:    name,
			clients: 2,
			warmup:  readWarmup(seed, backends, questions),
			item:    func(i int) (request, bool) { return read(i), true },
			replayN: 20000,
		}, nil
	case "read-cold":
		warm := readStream(seed+7, backends, questions)
		var w []request
		for i := 0; i < 100; i++ {
			w = append(w, warm(i))
		}
		return &workload{
			name:    name,
			clients: 2,
			flags:   []string{"-plan-cache", "0"},
			warmup:  w,
			item:    func(i int) (request, bool) { return read(i), true },
			replayN: 600,
		}, nil
	case "execute-fresh":
		warm, measured := executeStream(seed)
		return &workload{
			name: name,
			// One client: two concurrent executions share the
			// executor's worker pool, and how their batches interleave
			// moved a run's figures by up to 15% with the seed.
			clients: 1,
			flags:   []string{"-crowd-scale", "-crowd-size", fmt.Sprint(crowdSize)},
			warmup:  warm,
			item: func(i int) (request, bool) {
				if i >= len(measured) {
					return request{}, false
				}
				return measured[i], true
			},
			replayN: 300,
		}, nil
	case "write-mix":
		return &workload{
			name:    name,
			clients: 2,
			warmup:  readWarmup(seed, backends, questions),
			item: func(i int) (request, bool) {
				if i%writeEvery == writeEvery-1 {
					return request{op: opWrite, write: i / writeEvery}, true
				}
				return read(i), true
			},
			replayN: 20 * writeEvery,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have read-hot, read-cold, execute-fresh, write-mix)", name)
}

// sortedKeys returns a map's keys in order (deterministic iteration).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
