package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"omini/internal/cluster"
	"omini/internal/core"
	"omini/internal/obs"
	"omini/internal/ruledist"
	"omini/internal/serve"
)

// node is one in-process ominiserve: a serve.Server with its own
// registry, and in cluster mode the coordinator and rule replicator
// cmd/ominiserve wires in front of it.
type node struct {
	id    string
	url   string
	srv   *serve.Server
	coord *cluster.Coordinator
	repl  *ruledist.Replicator
	ln    net.Listener
	http  *http.Server
}

// stack is the serving stack under test: one node, or three clustered
// nodes on loopback TCP.
type stack struct {
	nodes  []*node
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Server settings mirror cmd/ominiserve's flag defaults.
const (
	maxBodyBytes   = 8 << 20
	maxInFlight    = 256
	requestTimeout = 30 * time.Second
	probeInterval  = time.Second
)

// bootStack starts n nodes the way cmd/ominiserve does (n > 1 runs them
// as one -cluster ring), each with an info-level logger writing to
// io.Discard. sampleRate is the servers' TraceSampleRate. spans, when
// non-nil, wraps each node's listener handler and the coordinator's
// Local handler with the benchmark's own spans.
func bootStack(n int, sampleRate float64, spans *spanRecorder) (*stack, error) {
	ctx, cancel := context.WithCancel(context.Background())
	st := &stack{cancel: cancel}
	peers := make(map[string]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		nd := &node{id: string(rune('a' + i)), ln: ln, url: "http://" + ln.Addr().String()}
		st.nodes = append(st.nodes, nd)
		peers[nd.id] = nd.url
	}
	clustered := n > 1
	for _, nd := range st.nodes {
		reg := obs.NewRegistry()
		logger := obs.NewLogger(io.Discard, obs.LevelInfo)
		nd.srv = serve.New(serve.Config{
			MaxBodyBytes:    maxBodyBytes,
			MaxInFlight:     maxInFlight,
			RequestTimeout:  requestTimeout,
			Limits:          core.Limits{MaxInputBytes: maxBodyBytes},
			Stats:           reg,
			Logger:          logger,
			RelearnInterval: time.Minute,
			TraceSampleRate: sampleRate,
			DeferReady:      clustered,
		})
		st.spawn(func() { _ = nd.srv.Run(ctx) })
		var handler http.Handler = nd.srv
		if clustered {
			repl, err := ruledist.New(ruledist.Config{
				Self:     nd.id,
				Peers:    peers,
				Farm:     nd.srv.Farm(),
				Interval: -1, // rounds are driven, and timed, by the benchmark
				Stats:    reg,
				Logger:   logger,
			})
			if err != nil {
				st.close()
				return nil, fmt.Errorf("ruledist: %w", err)
			}
			nd.repl = repl
			st.spawn(func() { _ = repl.Run(ctx) })
			var local http.Handler = nd.srv
			if spans != nil {
				local = spans.wrap(local, nd.id, spanLocal)
			}
			nd.coord = cluster.New(cluster.Config{
				Self:            nd.id,
				Peers:           peers,
				Local:           local,
				ProbeInterval:   probeInterval,
				MaxBodyBytes:    maxBodyBytes,
				Stats:           reg,
				Logger:          logger,
				Traces:          nd.srv.Traces(),
				TraceSampleRate: sampleRate,
				OnReadmission:   func(string) { repl.Kick() },
			})
			st.spawn(func() { _ = nd.coord.Run(ctx) })
			handler = nd.coord
		}
		if spans != nil {
			handler = spans.wrapFront(handler, nd.id, clustered)
		}
		nd.http = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
		st.spawn(func() { _ = nd.http.Serve(nd.ln) })
	}
	if clustered {
		// The join-time warm-up pull before readiness, as ominiserve runs it.
		for _, nd := range st.nodes {
			st.spawn(func() {
				_ = nd.repl.SyncOnJoin(ctx)
				nd.srv.MarkReady()
			})
		}
	}
	if err := st.waitReady(10 * time.Second); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *stack) spawn(fn func()) {
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		fn()
	}()
}

func (st *stack) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for _, nd := range st.nodes {
		for !nd.srv.Ready() {
			if time.Now().After(deadline) {
				return errors.New("stack: nodes not ready in time")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// close shuts the listeners down, stops every background loop, waits
// for all of them to return, and final-saves the farms.
func (st *stack) close() {
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, nd := range st.nodes {
		if nd.http != nil {
			_ = nd.http.Shutdown(sctx)
		} else {
			_ = nd.ln.Close()
		}
	}
	st.cancel()
	st.wg.Wait()
	for _, nd := range st.nodes {
		if nd.srv != nil {
			_ = nd.srv.Close()
		}
	}
}

// syncAll runs one replication round on every node, as the
// anti-entropy ticker would.
func (st *stack) syncAll(ctx context.Context) {
	for _, nd := range st.nodes {
		if nd.repl != nil {
			_ = nd.repl.SyncAll(ctx)
		}
	}
}
