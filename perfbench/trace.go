package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The traced run measures each layer from outside the program: the
// benchmark records its own spans around the calls it makes into public
// entry points (the client call, the listener's handler, a coordinator's
// Local handler, Replicator.SyncAll), and reads everything inside the
// program from the /metricsz series it already exports.

// Header carrying the benchmark's request id through every hop; the
// cluster coordinator copies request headers onto forwarded requests.
const requestIDHeader = "X-Bench-Request"

// Span names the benchmark records.
const (
	spanRequest   = "loadgen.request"   // due time → response read
	spanClient    = "http.client"       // request sent → response read
	spanServe     = "serve.handler"     // serve.Server.ServeHTTP on a single node's listener
	spanFront     = "cluster.front"     // Coordinator.ServeHTTP at the front door
	spanForwarded = "cluster.forwarded" // Coordinator.ServeHTTP at the node a hop reached
	spanLocal     = "serve.local"       // serve.Server.ServeHTTP as cluster.Config.Local
	spanSync      = "ruledist.sync"     // Replicator.SyncAll
)

// spanRec is one recorded span. Req is the request id shared by every
// span of one client call (-1 for replication rounds); times are
// nanoseconds since the recorder's epoch.
type spanRec struct {
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s spanRec) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanRecorder keeps spans in memory until the run ends.
type spanRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []spanRec
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

func (r *spanRecorder) add(s spanRec) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *spanRecorder) offset(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// record adds one span of request req from start to end.
func (r *spanRecorder) record(req int64, name, node, parent string, start, end time.Time) {
	r.add(spanRec{Req: req, Name: name, Node: node, Parent: parent, Start: r.offset(start), End: r.offset(end)})
}

// snapshot returns the spans recorded so far.
func (r *spanRecorder) snapshot() []spanRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]spanRec(nil), r.spans...)
}

// waitFront waits, up to a few seconds, until the listener-handler spans
// of want requests with ids in [from, to) are recorded. Such a span ends
// after the servers have counted the request, so a /metricsz scrape
// taken afterwards holds every one of them, whatever the client saw
// first.
func (r *spanRecorder) waitFront(from, to int64, want int) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		got := 0
		r.mu.Lock()
		for _, s := range r.spans {
			if s.Req >= from && s.Req < to && (s.Name == spanServe || s.Name == spanFront) {
				got++
			}
		}
		r.mu.Unlock()
		if got >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// requestID reads the benchmark's request id, or -1 on requests the
// benchmark did not send (health probes, replication pulls, scrapes).
func requestID(r *http.Request) int64 {
	v := r.Header.Get(requestIDHeader)
	if v == "" {
		return -1
	}
	id, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return -1
	}
	return id
}

// wrap times next under name for benchmark requests.
func (r *spanRecorder) wrap(next http.Handler, node, name string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := requestID(req)
		if id < 0 {
			next.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, req)
		parent := spanFront
		if req.Header.Get("X-Omini-Forwarded") != "" {
			parent = spanForwarded
		}
		r.record(id, name, node, parent, start, time.Now())
	})
}

// wrapFront times a node's listener handler: serve.Server on a single
// node, the coordinator in a cluster (front door or forwarded hop).
func (r *spanRecorder) wrapFront(next http.Handler, node string, clustered bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := requestID(req)
		if id < 0 {
			next.ServeHTTP(w, req)
			return
		}
		name, parent := spanServe, spanClient
		if clustered {
			name = spanFront
			if req.Header.Get("X-Omini-Forwarded") != "" {
				// Parented to the coordinator's program-side hop span,
				// whose total /metricsz exports.
				name, parent = spanForwarded, "cluster.hop"
			}
		}
		start := time.Now()
		next.ServeHTTP(w, req)
		r.record(id, name, node, parent, start, time.Now())
	})
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []spanRec) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans file: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("spans write: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("spans flush: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans close: %w", err)
	}
	return nil
}

// scrape is one /metricsz reading: series name (labels included) to
// value, summed over the nodes scraped.
type scrape map[string]float64

// scrapeAll reads /metricsz from every node and sums the series.
func scrapeAll(client *http.Client, st *stack) (scrape, error) {
	out := make(scrape)
	for _, nd := range st.nodes {
		resp, err := client.Get(nd.url + "/metricsz")
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", nd.id, err)
		}
		err = parseMetrics(resp.Body, out)
		_ = resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", nd.id, err)
		}
	}
	return out, nil
}

// parseMetrics adds one Prometheus text exposition into out. Exemplar
// suffixes (" # {...} v") are dropped.
func parseMetrics(r io.Reader, out scrape) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("bad metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return fmt.Errorf("bad metrics value in %q: %w", line, err)
		}
		out[line[:sp]] += v
	}
	return sc.Err()
}

// delta returns after minus before for one series.
func delta(before, after scrape, name string) float64 { return after[name] - before[name] }

func phaseSum(p string) string   { return `omini_phase_seconds_sum{phase="` + p + `"}` }
func phaseCount(p string) string { return `omini_phase_seconds_count{phase="` + p + `"}` }
