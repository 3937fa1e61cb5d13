// Command perfbench is the serving benchmark: it boots the real
// ominiserve stack in-process (serve.New, and for a cluster node
// cluster.New plus ruledist.New, wired as cmd/ominiserve wires them) on
// loopback TCP, drives it with a seeded load generator, checks every
// response, and prints the end-to-end metrics (--trace 0) or the
// per-layer ledger of a traced run (--trace 1).
//
//	go run . --workload warm-repeat --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Everything else (the per-metric lines, the stream digest, the machine
// fingerprint) goes to standard error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"omini/internal/sitegen"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spansDir string
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: warm-repeat, cold-discovery or cluster-3node")
		seed     = flag.Uint64("seed", 1, "seed of the generated hosts, pages and request stream")
		seconds  = flag.Float64("seconds", 30, "measured seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
		spansDir = flag.String("spans", "", "directory the traced run writes its spans to (empty: not written)")
	)
	flag.Parse()
	res, err := run(options{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, spansDir: *spansDir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.dropNonFinite()
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// dropNonFinite removes metrics that are not finite numbers (a latency
// percentile reached by failed requests reads +Inf), which JSON cannot
// carry, and marks such a run incorrect; the attempted and failed
// counts still print.
func (r *result) dropNonFinite() {
	for name, m := range r.Metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			fmt.Fprintf(os.Stderr, "perfbench: %s is %v, left out of the result\n", name, m.Value)
			delete(r.Metrics, name)
			r.Correct = false
		}
	}
}

// setupRepeats is how many times an end-to-end run sets up; setup_s is
// the median.
const setupRepeats = 3

// Throughput and CPU per request are medians over half-second slices of
// the closed loop, so a burst from a neighbour on the host moves them
// little.
const sliceSeconds = 0.5

// Stream index bases keep the request indices of the run's phases
// disjoint: fresh host names derive from the index.
const (
	baseClosed   = 0
	baseOpen     = 1 << 40
	baseUntraced = 2 << 40
	baseTraced   = 3 << 40
)

func run(o options) (*result, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	workers := runtime.NumCPU()
	fmt.Fprintf(os.Stderr, "machine: nproc=%d GOMAXPROCS=%d go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if o.trace {
		return runTraced(w, o, workers)
	}
	return runEndToEnd(w, o, workers)
}

// prepared is a booted, warmed stack with its traffic.
type prepared struct {
	gen    *generator
	st     *stack
	lg     *loadgen
	client *http.Client
}

func (p *prepared) close() {
	p.lg.waitChecks()
	p.lg.stopChecks()
	p.st.close()
	p.client.CloseIdleConnections()
}

// setup boots the servers, generates the pages and their references, and
// warms or fills the caches as the workload says.
func setup(w workload, seed uint64, workers int, sampleRate float64, spans *spanRecorder) (*prepared, error) {
	tr, err := buildTraffic(w, seed)
	if err != nil {
		return nil, err
	}
	st, err := bootStack(w.nodes, sampleRate, spans)
	if err != nil {
		return nil, err
	}
	client := newClient(workers)
	p := &prepared{gen: tr.gen, st: st, client: client, lg: &loadgen{
		client: client, st: st, pages: tr.pages, check: newChecker(tr.pages), workers: workers, spans: spans,
		service: newServiceTimes(len(tr.pages), w.nodes),
		stream:  tr.stream,
	}}
	p.lg.startChecks()
	training := tr.training
	pages := tr.pages
	ctx := context.Background()
	var learn []setupCall
	for i, tp := range training {
		front := st.nodes[i%w.nodes].url
		learn = append(learn, setupCall{front, "/extract", tp.Site, tp.HTML})
		if w.recordsShare > 0 {
			learn = append(learn, setupCall{front, "/records", tp.Site, tp.HTML})
		}
	}
	if err := p.post(ctx, workers, learn); err != nil {
		p.close()
		return nil, err
	}
	if w.fillFarm {
		if err := p.fill(ctx, workers, pages); err != nil {
			p.close()
			return nil, err
		}
	}
	if w.nodes > 1 {
		st.syncAll(ctx)
	}
	return p, nil
}

// traffic is a workload's generated inputs: the pool pages with their
// references, the warm hosts' training pages, and the request stream.
type traffic struct {
	gen      *generator
	pages    []*poolPage
	training []sitegen.Page
	stream   *stream
}

func buildTraffic(w workload, seed uint64) (*traffic, error) {
	g := newGenerator(seed)
	warm := make([]sitegen.SiteSpec, w.warmHosts)
	for i := range warm {
		warm[i] = g.site(nsWarm, uint64(i))
	}
	pool := make([]sitegen.SiteSpec, w.poolSites)
	for i := range pool {
		pool[i] = g.site(nsPool, uint64(i))
	}
	pages, training, err := buildPool(warm, pool, w.perHost, w.recordsShare > 0)
	if err != nil {
		return nil, err
	}
	pageSites := make([]string, len(pages))
	for i, p := range pages {
		pageSites[i] = p.warm
	}
	return &traffic{gen: g, pages: pages, training: training,
		stream: newStream(g, pageSites, w.recordsShare, w.freshShare, w.nodes)}, nil
}

// setupCall is one set-up request.
type setupCall struct{ front, path, site, html string }

// post sends set-up calls over `workers` connections; any reply but 200
// fails the set-up.
func (p *prepared) post(ctx context.Context, workers int, calls []setupCall) error {
	var next atomic.Int64
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(calls) {
					return
				}
				if err := p.postOne(ctx, calls[i]); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

func (p *prepared) postOne(ctx context.Context, c setupCall) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.front+c.path+"?site="+url.QueryEscape(c.site), strings.NewReader(c.html))
	if err != nil {
		return err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return fmt.Errorf("set-up %s %s: %w", c.path, c.site, err)
	}
	_, err = io.Copy(io.Discard, io.LimitReader(resp.Body, maxReplyBytes))
	_ = resp.Body.Close()
	if err != nil {
		return fmt.Errorf("set-up %s %s: %w", c.path, c.site, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("set-up %s %s: status %d", c.path, c.site, resp.StatusCode)
	}
	return nil
}

// fill learns hosts no traffic will name again, on the smallest pool
// pages, until the single node's farm is at capacity.
func (p *prepared) fill(ctx context.Context, workers int, pages []*poolPage) error {
	small := make([]*poolPage, len(pages))
	copy(small, pages)
	sort.SliceStable(small, func(i, j int) bool { return len(small[i].html) < len(small[j].html) })
	small = small[:max(1, len(small)/4)]
	f := p.st.nodes[0].srv.Farm()
	const batch = 256
	for i := 0; f.Len() < farmCapacity; i += batch {
		if i > 4*farmCapacity {
			return fmt.Errorf("set-up: farm holds %d rules after %d learns", f.Len(), i)
		}
		calls := make([]setupCall, batch)
		for k := range calls {
			calls[k] = setupCall{p.st.nodes[0].url, "/extract", p.gen.hostName(nsFill, uint64(i+k)), small[(i+k)%len(small)].html}
		}
		if err := p.post(ctx, workers, calls); err != nil {
			return err
		}
	}
	return nil
}

// syncer runs a replication round on each node every period until
// halted, each node on its own ticker offset by period/nodes (as
// independent anti-entropy loops would be), timing every
// Replicator.SyncAll from outside.
type syncer struct {
	stop   chan struct{}
	wg     sync.WaitGroup
	mu     sync.Mutex
	rounds []time.Duration
}

func startSyncer(st *stack, every time.Duration, spans *spanRecorder) *syncer {
	s := &syncer{stop: make(chan struct{})}
	if every <= 0 {
		return s
	}
	for i, nd := range st.nodes {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			select {
			case <-s.stop:
				return
			case <-time.After(every * time.Duration(i) / time.Duration(len(st.nodes))):
			}
			t := time.NewTicker(every)
			defer t.Stop()
			for {
				select {
				case <-s.stop:
					return
				case <-t.C:
				}
				start := time.Now()
				_ = nd.repl.SyncAll(context.Background())
				end := time.Now()
				s.mu.Lock()
				s.rounds = append(s.rounds, end.Sub(start))
				s.mu.Unlock()
				if spans != nil {
					spans.record(-1, spanSync, nd.id, "", start, end)
				}
			}
		}()
	}
	return s
}

// take returns the rounds timed since the last take.
func (s *syncer) take() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.rounds
	s.rounds = nil
	return out
}

func (s *syncer) halt() {
	close(s.stop)
	s.wg.Wait()
}

// runEndToEnd sets up setupRepeats times (keeping the last stack), then
// measures a closed-loop phase and an open-loop phase with tracing off.
func runEndToEnd(w workload, o options, workers int) (*result, error) {
	var setups []float64
	var p *prepared
	for i := 0; i < setupRepeats; i++ {
		if p != nil {
			p.close()
		}
		start := time.Now()
		var err error
		p, err = setup(w, o.seed, workers, -1, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer p.close()
	fmt.Fprintf(os.Stderr, "stream digest: %s\n", p.lg.stream.digest(baseClosed, 4096, p.lg.pages))

	ctx := context.Background()
	sy := startSyncer(p.st, w.syncEvery, nil)
	runtime.GC()
	closed, arr, allocBytes, allocs := measure(ctx, p.lg, p.gen.arrivals(0x0b, w.rate, o.seconds*openShare), o.seconds)
	sy.halt()

	var undelivered int64
	for _, a := range arr {
		if !a.ok {
			undelivered++
		}
	}
	var rates, cpus []float64
	for _, sl := range closed.slices {
		rates = append(rates, float64(sl.ok)/sl.elapsed.Seconds())
		if sl.done > 0 {
			cpus = append(cpus, sl.cpu.Seconds()*1e6/float64(sl.done))
		}
	}
	// The closed loop's throughput and the open loop's latency go to
	// standard error, not into the result: on a shared 2-vCPU host they
	// follow the host's load too closely to gate on (see README.md).
	fmt.Fprintf(os.Stderr, "closed loop: throughput_rps %.6g (median slice)\nslices: throughput_rps %s; cpu_us_per_req %s\nopen loop: %d arrivals at %.0f/s, latency p50 %.4g ms, p99 %.4g ms\n",
		median(rates), fmtList(rates), fmtList(cpus), len(arr), w.rate, latencyPercentile(arr, 0.50), latencyPercentile(arr, 0.99))
	sched := schedule(arr)
	fmt.Fprintf(os.Stderr, "open loop: %s\n", sched)
	prec, rec, scored := p.lg.check.precisionRecall()

	// Two collections: the first moves sync.Pool caches to their victim
	// lists, the second frees them, so what stays is what the servers
	// and the benchmark hold.
	runtime.GC()
	runtime.GC()
	var mh runtime.MemStats
	runtime.ReadMemStats(&mh)

	n := float64(closed.attempted)
	res := &result{
		Attempted: closed.attempted + int64(len(arr)),
		Failed:    closed.attempted - closed.ok + undelivered + p.lg.wrong.Load(),
		Metrics: map[string]metric{
			"setup_s":             {median(setups), "s"},
			"service_ms":          {p.lg.service.meanMs(), "ms"},
			"cpu_us_per_req":      {median(cpus), "us"},
			"alloc_bytes_per_req": {float64(allocBytes) / n, "B"},
			"allocs_per_req":      {float64(allocs) / n, "count"},
			"heap_retained_mb":    {float64(mh.HeapAlloc) / (1 << 20), "MiB"},
			"object_precision":    {prec, "ratio"},
			"object_recall":       {rec, "ratio"},
		},
	}
	schedErr := sched.check()
	res.Correct = res.Failed == 0 && schedErr == nil
	firstErr := p.lg.err()
	if firstErr == nil {
		firstErr = schedErr
	}
	report(res, fmt.Sprintf("closed loop %d requests over %d connections; open loop %d arrivals at %.0f/s; %d pages scored",
		closed.attempted, workers, len(arr), w.rate, scored), firstErr)
	return res, nil
}

// measureBlocks is how many closed/open block pairs a run alternates
// through: both phases then sample the whole run, not one stretch of it.
// openShare is the open loop's share of the measured time.
const (
	measureBlocks = 6
	openShare     = 0.25
)

// measure alternates closed-loop and open-loop blocks over the run.
// offsets is the whole open-loop schedule; block b sends the arrivals
// due in its share of it. The closed-loop readings and the allocation
// totals cover the closed blocks only.
func measure(ctx context.Context, lg *loadgen, offsets []float64, seconds float64) (closedResult, []arrival, uint64, uint64) {
	closedFor := time.Duration(seconds * (1 - openShare) / measureBlocks * float64(time.Second))
	openFor := seconds * openShare / measureBlocks
	perBlock := max(1, int(math.Round(closedFor.Seconds()/sliceSeconds)))
	var closed closedResult
	var arr []arrival
	var allocBytes, allocs uint64
	k := 0
	for b := 0; b < measureBlocks; b++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cr := lg.closedLoop(ctx, baseClosed+uint64(closed.attempted), closedFor, perBlock)
		runtime.ReadMemStats(&m1)
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		allocs += m1.Mallocs - m0.Mallocs
		closed.attempted += cr.attempted
		closed.ok += cr.ok
		closed.slices = append(closed.slices, cr.slices...)

		from, end := k, k
		lo := openFor * float64(b)
		for end < len(offsets) && offsets[end] < lo+openFor {
			end++
		}
		block := make([]float64, end-from)
		for i := range block {
			block[i] = offsets[from+i] - lo
		}
		arr = append(arr, lg.openLoop(ctx, baseOpen+uint64(from), block)...)
		k = end
	}
	return closed, arr, allocBytes, allocs
}

// runTraced sets up once with the servers sampling every request
// (ominiserve's default), runs the open loop untraced (each request
// carries a declined trace decision) and then traced, and splits the
// traced window's latency into layers.
func runTraced(w workload, o options, workers int) (*result, error) {
	spans := newSpanRecorder()
	p, err := setup(w, o.seed, workers, 1, spans)
	if err != nil {
		return nil, err
	}
	defer p.close()
	ctx := context.Background()
	half := o.seconds / 2
	sy := startSyncer(p.st, w.syncEvery, spans)

	p.lg.untraced = true
	untraced := p.lg.openLoop(ctx, baseUntraced, p.gen.arrivals(0x0c, w.rate, half))
	p.lg.untraced = false
	spans.waitFront(baseUntraced, baseTraced, len(untraced))

	before, err := scrapeAll(p.client, p.st)
	if err != nil {
		sy.halt()
		return nil, err
	}
	sy.take()
	rt0 := readRuntime()
	traced := p.lg.openLoop(ctx, baseTraced, p.gen.arrivals(0x0d, w.rate, half))
	spans.waitFront(baseTraced, math.MaxInt64, len(traced))
	rt1 := readRuntime()
	rounds := sy.take()
	after, err := scrapeAll(p.client, p.st)
	sy.halt()
	if err != nil {
		return nil, err
	}

	all := spans.snapshot()
	var window []spanRec
	for _, s := range all {
		if s.Req >= baseTraced {
			window = append(window, s)
		}
	}
	led, err := buildLedger(window, before, after, w.nodes > 1)
	if err != nil {
		return nil, err
	}
	recErr := led.reconcile()
	sched := schedule(append(untraced, traced...))
	schedErr := sched.check()

	attempted, failed := int64(len(untraced)+len(traced)), p.lg.wrong.Load()
	for _, a := range append(untraced, traced...) {
		if !a.ok {
			failed++
		}
	}
	m := perLayer(led, before, after, rounds, traced, untraced, rt0, rt1)
	m["failed_ratio"] = metric{float64(failed) / float64(attempted), "ratio"}
	res := &result{Attempted: attempted, Failed: failed, Metrics: m}
	res.Correct = failed == 0 && recErr == nil && schedErr == nil

	if o.spansDir != "" {
		path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
		if err := writeSpans(path, all); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "spans: %d written to %s\n", len(all), path)
	}
	fmt.Fprintf(os.Stderr, "ledger: %d traced requests, client mean %.4f ms; servers counted %d requests, spans saw %d handled; no self time below -%.0f%% of the mean allowed\n",
		led.requests, led.clientMs, led.counted, led.handled, reconcileTolerance*100)
	fmt.Fprintf(os.Stderr, "open loop: %s\n", sched)
	for _, name := range w.zero {
		verdict := "holds"
		if !nearZero(m[name], led.clientMs) {
			verdict = "DOES NOT HOLD"
		}
		fmt.Fprintf(os.Stderr, "predicted ~0: %s = %g (%s)\n", name, m[name].Value, verdict)
	}
	firstErr := p.lg.err()
	for _, err := range []error{recErr, schedErr} {
		if firstErr == nil {
			firstErr = err
		}
	}
	report(res, fmt.Sprintf("untraced %d + traced %d arrivals at %.0f/s", len(untraced), len(traced), w.rate), firstErr)
	return res, nil
}

// runtimeStats is a reading of the Go runtime's GC counters.
type runtimeStats struct {
	numGC           uint32
	pauseNs         uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	rs := runtimeStats{numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		rs.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		rs.totalCPU = samples[1].Value.Float64()
	}
	return rs
}

// perLayer assembles the per-layer metrics of a traced run.
func perLayer(led *ledger, before, after scrape, rounds []time.Duration,
	traced, untraced []arrival, rt0, rt1 runtimeStats) map[string]metric {
	d := func(name string) float64 { return delta(before, after, name) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	n := float64(led.requests)
	m := make(map[string]metric)
	for _, name := range append(append([]string{}, ledgerTerms...), "farm.fast_ms", "farm.slow_ms", "cluster.hop_ms") {
		m[name] = metric{led.ms[name], "ms"}
	}
	m["ledger.client_ms"] = metric{led.clientMs, "ms"}
	m["loadgen.late_p99_ms"] = metric{schedule(traced).lateP99Ms, "ms"}

	hits, misses := d("farm_hits"), d("farm_misses")
	counts := map[string]float64{
		"farm.fast_count":         d(`farm_path_seconds_count{path="fast"}`),
		"farm.slow_count":         d(`farm_path_seconds_count{path="slow"}`),
		"farm.learns":             d("farm_learns"),
		"farm.evictions":          d("farm_evictions"),
		"farm.coalesced":          d("farm_coalesced"),
		"farm.drift_checks":       d("farm_drift_checks"),
		"farm.sample_dropped":     d("farm_sample_dropped"),
		"separator.combine_count": d(phaseCount("separator")),
		"serve.cached_wrappers":   after["serve_cached_wrappers"],
		"serve.shed":              d("serve_shed"),
		"serve.errors":            d("serve_errors"),
		"cluster.failover":        d("cluster_failover"),
		"cluster.fallback_local":  d("cluster_fallback_local"),
		"ruledist.rounds":         d("ruledist_rounds"),
		"ruledist.rules_pulled":   d("ruledist_rules_pulled"),
		"ruledist.peer_errors":    d("ruledist_peer_errors"),
	}
	for k, v := range counts {
		m[k] = metric{v, "count"}
	}
	m["farm.hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["cluster.proxied_ratio"] = metric{ratio(d("cluster_proxied"), d("cluster_requests")), "ratio"}
	m["ruledist.not_modified_ratio"] = metric{ratio(d("ruledist_not_modified"), d("ruledist_peer_syncs")), "ratio"}
	var roundSum time.Duration
	for _, r := range rounds {
		roundSum += r
	}
	m["ruledist.round_ms"] = metric{ratio(roundSum.Seconds()*1000, float64(len(rounds))), "ms"}

	gcs := float64(rt1.numGC - rt0.numGC)
	m["runtime.gc_cycles_per_kreq"] = metric{gcs * 1000 / n, "count"}
	m["runtime.gc_pause_ms"] = metric{ratio(float64(rt1.pauseNs-rt0.pauseNs)/1e6, gcs), "ms"}
	m["runtime.gc_cpu_fraction"] = metric{ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "ratio"}

	m["obs.trace_overhead_ratio"] = metric{ratio(latencyPercentile(traced, 0.5), latencyPercentile(untraced, 0.5)), "ratio"}
	m["loadgen.latency_p50_ms"] = metric{latencyPercentile(untraced, 0.50), "ms"}
	m["loadgen.latency_p99_ms"] = metric{latencyPercentile(untraced, 0.99), "ms"}
	m["loadgen.latency_samples"] = metric{float64(len(untraced)), "count"}
	return m
}

// latencyPercentile is the q-th percentile, in milliseconds, of an open
// loop's due-to-done times; a request that got no correct reply counts
// as slower than any that did.
func latencyPercentile(arr []arrival, q float64) float64 {
	lat := make([]float64, len(arr))
	for i, a := range arr {
		lat[i] = (a.done - a.due).Seconds() * 1000
		if !a.good() {
			lat[i] = math.Inf(1)
		}
	}
	sort.Float64s(lat)
	return percentile(lat, q)
}

// report prints every metric by name and unit, and the first failure.
func report(res *result, summary string, firstErr error) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "%-30s %14s %s\n", name, strconv.FormatFloat(res.Metrics[name].Value, 'g', 6, 64), res.Metrics[name].Unit)
	}
	fmt.Fprintf(os.Stderr, "%s; failed %d of %d (failed_ratio %g)\n", summary, res.Failed, res.Attempted,
		float64(res.Failed)/float64(max(res.Attempted, 1)))
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "first failure:", firstErr)
	}
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func fmtList(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(parts, " ")
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
