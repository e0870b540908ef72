// Command perfbench is the repository's end-to-end benchmark of the
// nl2cmd daemon. Each run builds a fresh daemon on a loopback port,
// loads a seeded synthetic world through POST /api/store, warms the
// daemon up, and drives one workload for a fixed time from one or two
// closed-loop client connections, checking every response against an
// in-process oracle. With -trace 1 it also replays the same inputs
// in-process through the public nl2cm API with spans at every layer
// boundary and prints per-layer metrics instead.
//
// Run it through run.sh, which builds the daemon and this program:
//
//	bash perfbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits non-zero
// when any output is wrong or a steady-state guard breaks. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"nl2cm"
)

// metric is one named value of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execChecks is how many execute-fresh replies are compared with the
// exhaustive engine after the run (each costs ~0.5 s untimed).
const execChecks = 4

// setups is how many times a run sets a daemon up; setup_s is their
// median. A traced run sets up once.
const setups = 3

func main() {
	name := flag.String("workload", "", "workload: read-hot, read-cold, execute-fresh or write-mix")
	seed := flag.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: print per-layer metrics from a traced in-process replay")
	daemonBin := flag.String("daemon", "", "nl2cmd binary to benchmark")
	outDir := flag.String("out", ".bench_build", "directory for daemon logs and span dumps")
	corrupt := flag.Bool("corrupt-oracle", false, "self-test: corrupt one expected answer, so the run must fail")
	flag.Parse()
	// The client shares the machine with the daemon; collecting its
	// garbage less often keeps it from competing for the CPUs.
	debug.SetGCPercent(400)
	if *daemonBin == "" || *name == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -daemon <nl2cmd> -workload <name> [-seed n] [-seconds s] [-trace 0|1]")
		os.Exit(2)
	}
	b := &bench{seed: *seed, daemonBin: *daemonBin, outDir: *outDir, trace: *trace == 1, corrupt: *corrupt}
	rep, err := b.run(*name, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for k, m := range rep.Metrics {
		// A latency percentile that lands on a failed request is +Inf,
		// which JSON cannot carry; the largest float stands in for it.
		if math.IsInf(m.Value, 1) {
			m.Value = math.MaxFloat64
			rep.Metrics[k] = m
		}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

// bench holds one run's configuration and shared inputs.
type bench struct {
	seed      int64
	daemonBin string
	outDir    string
	trace     bool
	corrupt   bool

	batches  []string // the loaded hotels, as POST /api/store bodies
	backends []string
	wl       *workload
	chk      *checker
	guards   []string // broken steady-state guards
}

func (b *bench) guard(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		b.guards = append(b.guards, msg)
		fmt.Fprintln(os.Stderr, "perfbench: GUARD:", msg)
	}
}

// prepare builds the world, the in-process oracle and the workload.
func (b *bench) prepare(name string) error {
	b.backends = nl2cm.Backends()
	b.chk = &checker{execKept: map[int]execReply{}}
	if name == "execute-fresh" {
		// execute-fresh asks no read questions; it loads the hotels it
		// can ask about instead of the world.
		b.batches = hotelBatches(executeLoaded())
		b.chk.execCheck = func(i int) bool { return i == 0 || mix(b.seed, "check", i)%8 == 0 }
		var err error
		b.wl, err = buildWorkload(name, b.seed, b.backends, nil)
		return err
	}
	b.batches = hotelBatches(firstHotels(worldHotels))
	onto, err := buildOntology(b.batches)
	if err != nil {
		return err
	}
	pool, entities := readPool(b.seed)
	if b.chk.oracle, err = readOracle(onto, pool, b.backends); err != nil {
		return err
	}
	if err := checkVariants(b.chk.oracle, entities); err != nil {
		return err
	}
	if b.wl, err = buildWorkload(name, b.seed, b.backends, pool); err != nil {
		return err
	}
	if name == "write-mix" {
		b.chk.writes = writeEntities(b.seed, writeCycle, questionWords(pool))
		if err := checkWriteInvariance(b.batches, b.chk.writes, b.chk.oracle, b.backends, pool); err != nil {
			return fmt.Errorf("write-mix set-up: %w", err)
		}
	}
	if b.corrupt {
		// Corrupt the answer the first measured request expects.
		req, _ := b.wl.item(0)
		k := oracleKey(req.question, req.backend)
		a := b.chk.oracle[k]
		a.query += " "
		b.chk.oracle[k] = a
	}
	return nil
}

// setup starts a daemon, loads the world and warms it up.
func (b *bench) setup(n int) (*daemon, *runner, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(b.daemonBin, b.wl.flags, filepath.Join(b.outDir, fmt.Sprintf("nl2cmd-%s-%d.log", b.wl.name, n)))
	if err != nil {
		return nil, nil, 0, err
	}
	r := newRunner(d.base, b.chk, b.wl.clients)
	for i, body := range b.batches {
		sr, err := postStore(r.http, d.base, body, "")
		if err != nil {
			r.close()
			d.stop()
			return nil, nil, 0, fmt.Errorf("world batch %d: %w", i, err)
		}
		if sr.Removed != 0 || sr.Added == 0 {
			b.chk.fail("world batch %d: reply %+v", i, sr)
		}
	}
	r.runList(b.wl.warmup) // failures count through the checker
	return d, r, time.Since(t0), nil
}

// run performs one benchmark run and builds its report.
func (b *bench) run(name string, window time.Duration) (*report, error) {
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := b.prepare(name); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: oracle and inputs ready in %.2fs\n", time.Since(t0).Seconds())
	n := setups
	if b.trace {
		n = 1 // set-up time is an end-to-end metric
	}
	var setupTimes []float64
	var d *daemon
	var r *runner
	for s := 0; s < n; s++ {
		var st time.Duration
		var err error
		if d, r, st, err = b.setup(s); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, st.Seconds())
		if s < n-1 {
			r.close()
			d.stop()
		}
	}
	m, err := b.measure(d, r, window)
	r.close()
	d.stop()
	if err != nil {
		return nil, err
	}
	m.setup = median(setupTimes)
	if name == "execute-fresh" {
		if err := b.checkExecutions(); err != nil {
			return nil, err
		}
	}

	rep := &report{Attempted: len(m.res.samples), Metrics: map[string]metric{}}
	if b.trace {
		if err := b.perLayer(m, rep.Metrics); err != nil {
			return nil, err
		}
	} else {
		m.endToEnd(rep.Metrics)
	}
	// Every failed or wrong response is reported through the checker,
	// in the window or outside it (world load, warm-up, exhaustive check,
	// replay); broken guards fail the run too.
	rep.Failed = int(b.chk.failures.Load()) + len(b.guards)
	if rep.Attempted == 0 {
		rep.Attempted = 1
		rep.Failed++
	}
	rep.Correct = rep.Failed == 0
	m.print(rep)
	return rep, nil
}

// measurement is what one measured window produced.
type measurement struct {
	res           *runResult
	before, after *serverStats
	cpu           time.Duration
	rss           float64
	setup         float64 // median set-up seconds
	writes        int
	steal         float64 // share of CPU time the hypervisor stole in the window
}

// measure drives the measured window on a warmed daemon and checks the
// workload's steady-state guards.
func (b *bench) measure(d *daemon, r *runner, window time.Duration) (*measurement, error) {
	m := &measurement{}
	var err error
	if m.before, err = d.stats(); err != nil {
		return nil, err
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	steal0, total0, _ := hostSteal() // diagnostics only
	m.res = r.drive(b.wl.item, time.Now().Add(window))
	steal1, total1, _ := hostSteal()
	m.steal = ratio(float64(steal1-steal0), float64(total1-total0))
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	m.cpu = cpu1 - cpu0
	if m.after, err = d.stats(); err != nil {
		return nil, err
	}
	if m.rss, err = d.peakRSS(); err != nil {
		return nil, err
	}
	for _, s := range m.res.samples {
		if s.op == opWrite {
			m.writes++
		}
	}
	pc0, pc1 := m.before.PlanCache, m.after.PlanCache
	switch b.wl.name {
	case "read-hot":
		b.guard(pc0 != nil && pc1 != nil && pc1.Misses == pc0.Misses, "read-hot: plan-cache misses in the window")
		b.guard(countOutcome(m.res.samples, "hit", "rebound") == len(m.res.samples), "read-hot: a request was not served from the plan cache")
	case "read-cold":
		b.guard(countOutcome(m.res.samples, "bypass") == len(m.res.samples), "read-cold: a request did not bypass the plan cache")
	case "execute-fresh":
		c0, c1 := m.before.Crowd, m.after.Crowd
		b.guard(c1.SupportCacheHits == c0.SupportCacheHits, "execute-fresh: support-cache hits in the window")
		b.guard(c0.Scale != nil && c1.Scale != nil && c1.Scale.StateHits == c0.Scale.StateHits, "execute-fresh: sampler-state hits in the window")
		b.guard(countOutcome(m.res.samples, "rebound") == len(m.res.samples), "execute-fresh: a translation was not a plan-cache rebind")
		_, more := b.wl.item(m.res.items)
		b.guard(more, "execute-fresh: ran out of never-asked hotels")
	case "write-mix":
		b.guard(m.after.Store.Epoch-m.before.Store.Epoch == uint64(m.writes), "write-mix: %d epochs for %d writes", m.after.Store.Epoch-m.before.Store.Epoch, m.writes)
		// Delete the hotels still live, then the store must hold what it
		// began with.
		var del string
		for j := max(0, m.writes-writeKeep); j < m.writes; j++ {
			del += writeFor(b.chk.writes, j).triples()
		}
		if del != "" {
			if _, err := postStore(r.http, d.base, "", del); err != nil {
				return nil, fmt.Errorf("write-mix clean-up: %w", err)
			}
		}
		end, err := d.stats()
		if err != nil {
			return nil, err
		}
		b.guard(end.Store.Triples == m.before.Store.Triples, "write-mix: store ends with %d triples, began with %d", end.Store.Triples, m.before.Store.Triples)
	}
	return m, nil
}

func countOutcome(ss []sample, outcomes ...string) int {
	n := 0
	for _, s := range ss {
		for _, o := range outcomes {
			if s.outcome == o && !s.failed {
				n++
			}
		}
	}
	return n
}

// checkExecutions compares the kept execute-fresh replies with a cold
// translation and the exhaustive engine (no streaming executor, same
// crowd size, seed and truth). It runs after the window, untimed.
func (b *bench) checkExecutions() error {
	idx := make([]int, 0, len(b.chk.execKept))
	for i := range b.chk.execKept {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	if len(idx) > execChecks {
		idx = idx[:execChecks]
	}
	if len(idx) == 0 {
		b.chk.fail("execute-fresh: no reply kept for the exhaustive check")
		return nil
	}
	onto, err := buildOntology(b.batches)
	if err != nil {
		return err
	}
	eng, err := newCrowdEngine(onto, false)
	if err != nil {
		return err
	}
	for n, i := range idx {
		got := b.chk.execKept[i]
		query, want, err := execOracle(onto, eng, got.question)
		if err != nil {
			return err
		}
		if b.corrupt && n == 0 {
			want = append(want, "$x = Corrupted")
		}
		if query != got.query {
			b.chk.fail("execute %q: query differs from the cold translation\n got: %s\nwant: %s", got.question, got.query, query)
		}
		if fmt.Sprint(want) != fmt.Sprint(got.bindings) {
			b.chk.fail("execute %q: significant bindings differ from the exhaustive engine\n got: %v\nwant: %v", got.question, got.bindings, want)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d execute replies match the exhaustive engine check\n", len(idx))
	return nil
}

// print writes the human-readable summary lines.
func (m *measurement) print(rep *report) {
	fmt.Printf("requests: %d attempted, %d failed (error_rate %.4f), %d stream items in %.2fs; setup %.3fs (median); host steal %.1f%%\n",
		rep.Attempted, rep.Failed, float64(rep.Failed)/float64(rep.Attempted), m.res.items, m.res.elapsed.Seconds(), m.setup, 100*m.steal)
	if len(m.res.visible) > 0 {
		v := durations(m.res.visible)
		fmt.Printf("visibility: visible_p50_ms %.3f, visible_p90_ms %.3f over %d writes\n",
			percentile(v, 0.5)/1e6, percentile(v, 0.9)/1e6, len(v))
	}
}

// latencies returns the window's client latencies, sorted, with a
// failed request counted as missing every latency limit (+Inf), and how
// many requests completed.
func (m *measurement) latencies() ([]float64, int) {
	lat := make([]float64, 0, len(m.res.samples))
	completed := 0
	for _, s := range m.res.samples {
		if s.failed {
			lat = append(lat, math.Inf(1))
			continue
		}
		completed++
		lat = append(lat, float64(s.lat))
	}
	sort.Float64s(lat)
	return lat, completed
}

// endToEnd fills the user-visible metrics. The gated tail is p90: on a
// shared two-vCPU machine read-hot's p99 tracks hypervisor steal, not
// the program, so it is printed beside the metrics instead.
func (m *measurement) endToEnd(out map[string]metric) {
	lat, completed := m.latencies()
	fmt.Printf("latency samples: %d; p90 has %d beyond it; p99 %.3f ms with %d beyond it\n",
		len(lat), beyond(len(lat), 0.9), percentile(lat, 0.99)/1e6, beyond(len(lat), 0.99))
	out["throughput_rps"] = metric{float64(completed) / m.res.elapsed.Seconds(), "1/s"}
	out["latency_p50_ms"] = metric{percentile(lat, 0.5) / 1e6, "ms"}
	out["latency_p90_ms"] = metric{percentile(lat, 0.9) / 1e6, "ms"}
	out["cpu_us_per_req"] = metric{ratio(float64(m.cpu.Microseconds()), float64(completed)), "us"}
	out["peak_rss_mb"] = metric{m.rss, "MiB"}
	out["setup_s"] = metric{m.setup, "s"}
}

// beyond returns how many of n sorted samples lie above the p-quantile.
func beyond(n int, p float64) int { return n - int(math.Ceil(p*float64(n))) }

// percentile returns the nearest-rank p-quantile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// durations converts to sorted float64 nanoseconds.
func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	sort.Float64s(out)
	return out
}
