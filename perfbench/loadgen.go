package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"omini/internal/obs"
)

// loadgen drives the stack with the seeded stream over at most
// `workers` concurrent connections and checks every response. Replies
// are checked by one goroutine off the connections' path, so decoding
// a reply never delays the next request a connection sends; every phase
// waits for its replies' checks before it returns, so no checking spills
// into the next phase's timed window.
type loadgen struct {
	client  *http.Client
	st      *stack
	stream  *stream
	pages   []*poolPage
	check   *checker
	service *serviceTimes
	workers int
	spans   *spanRecorder
	// untraced, when set, sends every request with a declined
	// X-Omini-Trace decision, so servers that sample by default skip it.
	untraced bool

	jobs    chan checkJob
	pending sync.WaitGroup
	checked chan struct{}
	// wrong counts replies the checker rejected.
	wrong atomic.Int64

	failMu   sync.Mutex
	firstErr error
}

// checkJob is one delivered reply waiting for its check. wrong, when
// set, is flagged if the check fails.
type checkJob struct {
	r      request
	status int
	body   []byte
	wrong  *bool
}

// checkQueue bounds the replies waiting for the checker; a connection
// that finds it full waits, so checking can lag but never run away.
const checkQueue = 256

// startChecks starts the checker goroutine; stopChecks ends it.
func (lg *loadgen) startChecks() {
	lg.jobs = make(chan checkJob, checkQueue)
	lg.checked = make(chan struct{})
	go func() {
		defer close(lg.checked)
		for j := range lg.jobs {
			if err := lg.check.check(j.r, j.status, j.body); err != nil {
				lg.fail(err)
				lg.wrong.Add(1)
				if j.wrong != nil {
					*j.wrong = true
				}
			}
			lg.pending.Done()
		}
	}()
}

// waitChecks returns once every reply handed to the checker is checked.
func (lg *loadgen) waitChecks() { lg.pending.Wait() }

func (lg *loadgen) stopChecks() {
	close(lg.jobs)
	<-lg.checked
}

func (lg *loadgen) fail(err error) {
	lg.failMu.Lock()
	if lg.firstErr == nil {
		lg.firstErr = err
	}
	lg.failMu.Unlock()
}

// maxReplyBytes caps how much of one reply the client reads; the
// largest pages' replies are well under a megabyte.
const maxReplyBytes = 64 << 20

func newClient(workers int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: workers,
		MaxConnsPerHost:     workers,
		DisableCompression:  true,
		IdleConnTimeout:     90 * time.Second,
	}}
}

// send issues request i and hands its reply to the checker. It returns
// the request, when the reply was fully read, and false when the call
// failed; a reply the checker later rejects flags *wrong (when non-nil)
// and counts in lg.wrong.
func (lg *loadgen) send(ctx context.Context, i uint64, wrong *bool) (request, time.Time, bool) {
	r := lg.stream.at(i)
	status, body, read, err := lg.post(ctx, r, int64(i))
	if err != nil {
		lg.fail(err)
		return r, read, false
	}
	lg.pending.Add(1)
	lg.jobs <- checkJob{r: r, status: status, body: body, wrong: wrong}
	return r, read, true
}

// post sends one request and reads the whole reply, returning when the
// read finished.
func (lg *loadgen) post(ctx context.Context, r request, id int64) (int, []byte, time.Time, error) {
	u := lg.st.nodes[r.front].url + r.path() + "?site=" + url.QueryEscape(r.site)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, strings.NewReader(lg.pages[r.page].html))
	if err != nil {
		return 0, nil, time.Time{}, err
	}
	req.Header.Set("Content-Type", "text/html")
	if lg.spans != nil {
		req.Header.Set(requestIDHeader, strconv.FormatInt(id, 10))
	}
	if lg.untraced {
		req.Header.Set(obs.TraceHeader, obs.SpanContext{TraceID: obs.NewTraceID()}.Header())
	}
	start := time.Now()
	resp, err := lg.client.Do(req)
	if err != nil {
		return 0, nil, time.Now(), err
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxReplyBytes))
	_ = resp.Body.Close()
	read := time.Now()
	if err != nil {
		return 0, nil, read, err
	}
	if lg.spans != nil {
		lg.spans.record(id, spanClient, "", spanRequest, start, read)
	}
	return resp.StatusCode, body, read, nil
}

func (lg *loadgen) err() error {
	lg.failMu.Lock()
	defer lg.failMu.Unlock()
	return lg.firstErr
}

// serviceTimes keeps, for every route a closed loop sends (pool page,
// endpoint and front door), its fastest reply and its number of replies.
// A route's fastest reply is its cost on a quiet host: a neighbour that
// takes the processors away, even for most of a run, slows some of a
// route's replies but seldom all of them.
type serviceTimes struct {
	nodes   int
	fastest []atomic.Int64 // nanoseconds; 0 until the first reply
	count   []atomic.Int64
}

func newServiceTimes(pages, nodes int) *serviceTimes {
	return &serviceTimes{nodes: nodes, fastest: make([]atomic.Int64, pages*2*nodes), count: make([]atomic.Int64, pages*2*nodes)}
}

func (s *serviceTimes) observe(r request, d time.Duration) {
	k := r.page * 2
	if r.records {
		k++
	}
	k = k*s.nodes + r.front
	s.count[k].Add(1)
	for {
		f := s.fastest[k].Load()
		if f != 0 && f <= int64(d) {
			return
		}
		if s.fastest[k].CompareAndSwap(f, int64(d)) {
			return
		}
	}
}

// meanMs is the mean over the closed loops' replies of their route's
// fastest reply, in milliseconds: each route weighs as often as it was
// sent.
func (s *serviceTimes) meanMs() float64 {
	var sum float64
	var n int64
	for k := range s.count {
		c := s.count[k].Load()
		sum += float64(c) * float64(s.fastest[k].Load()) / 1e6
		n += c
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// closedResult is one closed-loop phase.
type closedResult struct {
	attempted, ok int64
	// slices are readings taken at the phase's equal time slices.
	slices []sliceReading
}

// sliceReading is one slice of a closed-loop phase: its delivered
// replies (a reply the checker rejects fails the whole run), requests
// completed, and process CPU time and elapsed time.
type sliceReading struct {
	ok, done     int64
	cpu, elapsed time.Duration
}

// closedLoop runs `workers` callers that each send their next request
// when the previous reply is in, from stream index base on, until d has
// passed; in-flight calls finish, and their replies are checked, before
// it returns. A reading is taken at the end of each of nslices equal
// slices of d.
func (lg *loadgen) closedLoop(ctx context.Context, base uint64, d time.Duration, nslices int) closedResult {
	var next, attempted, done, ok atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < lg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d && ctx.Err() == nil {
				i := next.Add(1) - 1
				attempted.Add(1)
				sent := time.Now()
				if r, read, good := lg.send(ctx, base+uint64(i), nil); good {
					ok.Add(1)
					lg.service.observe(r, read.Sub(sent))
				}
				done.Add(1)
			}
		}()
	}
	var res closedResult
	prevOK, prevDone, prevCPU, prevAt := int64(0), int64(0), cpuTime(), start
	for k := 1; k <= nslices; k++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(k) / time.Duration(nslices))))
		o, n, c, at := ok.Load(), done.Load(), cpuTime(), time.Now()
		res.slices = append(res.slices, sliceReading{ok: o - prevOK, done: n - prevDone, cpu: c - prevCPU, elapsed: at.Sub(prevAt)})
		prevOK, prevDone, prevCPU, prevAt = o, n, c, at
	}
	wg.Wait()
	lg.waitChecks()
	res.attempted, res.ok = attempted.Load(), ok.Load()
	return res
}

// arrival is one open-loop request: when it was due, when the
// generator's timer released it (its due time when a connection only
// got to it later), when a connection sent it, when its reply was read
// (checking the reply comes after and is not part of its latency).
// ok is false when the call failed; wrong is set when the checker
// rejected the reply.
type arrival struct {
	due, released, sent, done time.Duration
	ok, wrong                 bool
}

// good reports whether the request got a correct reply.
func (a *arrival) good() bool { return a.ok && !a.wrong }

// openLoop sends request base+k at offsets[k] seconds from its start,
// whatever the replies are doing: a Poisson schedule served by
// `workers` connections, each request timed from when it was due. A
// free connection takes the next arrival and waits for its due time.
// It returns once every reply is read and checked.
func (lg *loadgen) openLoop(ctx context.Context, base uint64, offsets []float64) []arrival {
	out := make([]arrival, len(offsets))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < lg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(offsets) || ctx.Err() != nil {
					return
				}
				a := &out[k]
				a.due = time.Duration(offsets[k] * float64(time.Second))
				a.released = a.due
				if wait := a.due - time.Since(start); wait > 0 {
					waitUntil(start.Add(a.due))
					a.released = time.Since(start)
				}
				a.sent = time.Since(start)
				var read time.Time
				_, read, a.ok = lg.send(ctx, base+uint64(k), &a.wrong)
				a.done = read.Sub(start)
				if lg.spans != nil {
					lg.spans.add(spanRec{Req: int64(base + uint64(k)), Name: spanRequest,
						Start: lg.spans.offset(start.Add(a.due)), End: lg.spans.offset(start.Add(a.done))})
				}
			}
		}()
	}
	wg.Wait()
	lg.waitChecks()
	return out
}

// spinLead is how long before an arrival's due time its connection
// stops sleeping and starts polling the clock.
const spinLead = 1500 * time.Microsecond

// waitUntil returns at t: it sleeps until spinLead before t, then yields
// the processor in a loop until t. A plain sleep would leave late: the
// runtime's timers wake sleepers through a poller that Linux lets wait
// only in whole milliseconds, and a virtual CPU woken from idle waits
// for the hypervisor, a delay that varies with the neighbours' load. The
// yielding loop keeps the generator awake for those last moments without
// holding back any goroutine that has work.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinLead; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// An open loop is valid only while the generator keeps to its schedule:
// a free connection must send an arrival close to its due time, and no
// arrival may wait long for a connection (a backlog means the rate
// exceeds what the stack serves, and the percentiles then grow with the
// run's length instead of measuring the servers).
const (
	maxLateP99Ms = 40
	maxQueueMs   = 1000
)

// scheduleStats is how closely an open loop kept its schedule: the p99
// of timer lateness (released minus due, the generator's own delay while
// a connection was free), the mean wait from due to sent (lateness plus
// waiting for a free connection), and the longest such wait.
type scheduleStats struct{ lateP99Ms, queueMs, maxQueueMs float64 }

func schedule(arr []arrival) scheduleStats {
	var s scheduleStats
	late := make([]float64, len(arr))
	for i, a := range arr {
		late[i] = (a.released - a.due).Seconds() * 1000
		q := (a.sent - a.due).Seconds() * 1000
		s.queueMs += q / float64(len(arr))
		s.maxQueueMs = max(s.maxQueueMs, q)
	}
	sort.Float64s(late)
	s.lateP99Ms = percentile(late, 0.99)
	return s
}

// check returns an error when the generator fell behind its schedule.
func (s scheduleStats) check() error {
	switch {
	case s.lateP99Ms > maxLateP99Ms:
		return fmt.Errorf("open loop: timer lateness p99 %.2f ms exceeds %d ms", s.lateP99Ms, maxLateP99Ms)
	case s.maxQueueMs > maxQueueMs:
		return fmt.Errorf("open loop: an arrival waited %.0f ms for a connection, limit %d ms", s.maxQueueMs, maxQueueMs)
	}
	return nil
}

func (s scheduleStats) String() string {
	return fmt.Sprintf("timer lateness p99 %.3f ms (limit %d), due-to-sent mean %.3f ms, max %.1f ms (limit %d)",
		s.lateP99Ms, maxLateP99Ms, s.queueMs, s.maxQueueMs, maxQueueMs)
}
