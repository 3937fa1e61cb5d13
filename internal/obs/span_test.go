package obs

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestSpanRecordsIntoRegistryAndRecorder(t *testing.T) {
	r := NewRegistry()
	ctx := WithRegistry(context.Background(), r)
	ctx, rec := WithTraceRecorder(ctx, false)

	_, sp := StartSpan(ctx, "tidy")
	sp.End()

	h := r.Histogram(PhaseSeries("tidy"))
	if h.Count() != 1 {
		t.Errorf("histogram count = %d, want 1", h.Count())
	}
	spans := rec.Spans()
	if len(spans) != 1 || spans[0].Name != "tidy" {
		t.Fatalf("spans = %+v, want one 'tidy' span", spans)
	}
	if spans[0].DurationNS < 0 {
		t.Errorf("negative duration %d", spans[0].DurationNS)
	}
	if sp.Duration() <= 0 {
		t.Errorf("Duration() = %v, want > 0", sp.Duration())
	}
}

func TestSpanNesting(t *testing.T) {
	ctx := WithRegistry(context.Background(), NewRegistry())
	ctx, rec := WithTraceRecorder(ctx, false)

	ctx1, parent := StartSpan(ctx, "parse")
	ctx2, child := StartSpan(ctx1, "tokenize")
	_, grandchild := StartSpan(ctx2, "entities")
	grandchild.End()
	child.End()
	// A sibling started from the parent's context nests under "parse",
	// not under the already-ended "tokenize".
	_, sibling := StartSpan(ctx1, "tidy")
	sibling.End()
	parent.End()

	byName := map[string]PhaseSample{}
	for _, s := range rec.Spans() {
		byName[s.Name] = s
	}
	checks := []struct {
		name, parent string
		depth        int
	}{
		{"parse", "", 0},
		{"tokenize", "parse", 1},
		{"entities", "tokenize", 2},
		{"tidy", "parse", 1},
	}
	for _, c := range checks {
		got, ok := byName[c.name]
		if !ok {
			t.Errorf("span %q not recorded", c.name)
			continue
		}
		if got.Parent != c.parent || got.Depth != c.depth {
			t.Errorf("span %q: parent=%q depth=%d, want parent=%q depth=%d",
				c.name, got.Parent, got.Depth, c.parent, c.depth)
		}
	}
	// Completion order: children end before parents.
	spans := rec.Spans()
	if spans[len(spans)-1].Name != "parse" {
		t.Errorf("last completed span = %q, want parse", spans[len(spans)-1].Name)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	ctx := WithRegistry(context.Background(), NewRegistry())
	ctx, rec := WithTraceRecorder(ctx, false)
	_, sp := StartSpan(ctx, "x")
	sp.End()
	sp.End()
	if n := len(rec.Spans()); n != 1 {
		t.Errorf("double End recorded %d spans, want 1", n)
	}
	var nilSpan *Span
	nilSpan.End() // must not panic
}

// allocSink keeps test allocations observable to the span's memstats delta.
var allocSink []byte

func TestSpanAllocSampling(t *testing.T) {
	ctx, rec := WithTraceRecorder(context.Background(), true)
	_, sp := StartSpan(ctx, "alloc")
	allocSink = make([]byte, 1<<20)
	sp.End()
	spans := rec.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	if spans[0].AllocBytes < 1<<20 {
		t.Errorf("AllocBytes = %d, want >= 1MiB", spans[0].AllocBytes)
	}
	if spans[0].Allocs < 1 {
		t.Errorf("Allocs = %d, want >= 1", spans[0].Allocs)
	}
}

func TestSpanWithoutRecorderStillObserves(t *testing.T) {
	r := NewRegistry()
	ctx := WithRegistry(context.Background(), r)
	_, sp := StartSpan(ctx, "solo")
	sp.End()
	if r.Histogram(PhaseSeries("solo")).Count() != 1 {
		t.Error("span without recorder did not feed the registry histogram")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `omini_phase_seconds_count{phase="solo"} 1`) {
		t.Errorf("exposition missing solo phase:\n%s", b.String())
	}
}

// TestUntracedSpanIsCheap pins the cost of a span on an untraced
// request: StartSpan+End is one allocation (the span) and that
// allocation carries no runtime.MemStats; RecordSpan allocates nothing.
func TestUntracedSpanIsCheap(t *testing.T) {
	r := NewRegistry()
	ctx := WithRegistry(context.Background(), r)
	// Warm the histogram so the measured runs only look it up.
	_, warm := StartSpan(ctx, "cheap")
	warm.End()

	allocs := testing.AllocsPerRun(100, func() {
		_, sp := StartSpan(ctx, "cheap")
		sp.End()
	})
	if allocs > 1 {
		t.Errorf("untraced StartSpan+End = %v allocs, want <= 1", allocs)
	}
	if size, mem := unsafe.Sizeof(Span{}), unsafe.Sizeof(runtime.MemStats{}); size >= mem {
		t.Errorf("span allocation is %d bytes, not below a MemStats (%d)", size, mem)
	}
	start := time.Now()
	if allocs := testing.AllocsPerRun(100, func() {
		RecordSpan(ctx, "cheap", start, time.Microsecond)
	}); allocs != 0 {
		t.Errorf("untraced RecordSpan = %v allocs, want 0", allocs)
	}
	if got, want := r.Histogram(PhaseSeries("cheap")).Count(), int64(1+2*101); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
}

// TestRecordSpan checks that a span recorded after the fact lands in
// the registry and the trace exactly as a started-and-ended one does:
// same name, parent, depth and span-tree links, with the given duration
// and start offset.
func TestRecordSpan(t *testing.T) {
	r := NewRegistry()
	ctx := WithRegistry(context.Background(), r)
	ctx, rec := WithTraceRecorder(ctx, true)
	pctx, parent := StartSpan(ctx, "parse")
	start := rec.Start().Add(5 * time.Millisecond)
	RecordSpan(pctx, "tokenize", start, 3*time.Millisecond)
	parent.End()

	if got := r.Histogram(PhaseSeries("tokenize")).Sum(); got != 0.003 {
		t.Errorf("tokenize histogram sum = %v, want 0.003", got)
	}
	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %+v, want tokenize then parse", spans)
	}
	got := spans[0]
	if got.Name != "tokenize" || got.Parent != "parse" || got.Depth != 1 {
		t.Errorf("recorded span = %+v, want tokenize under parse at depth 1", got)
	}
	if got.DurationNS != int64(3*time.Millisecond) || got.StartNS != int64(5*time.Millisecond) {
		t.Errorf("recorded span duration/start = %d/%d, want 3ms/5ms", got.DurationNS, got.StartNS)
	}
	if got.ParentSpanID != spans[1].SpanID || got.SpanID == "" || got.SpanID == spans[1].SpanID {
		t.Errorf("span links: child %s parent %s, parent's own %s", got.SpanID, got.ParentSpanID, spans[1].SpanID)
	}
	if got.AllocBytes != 0 {
		t.Errorf("recorded span carries alloc delta %d; only timed spans sample", got.AllocBytes)
	}
}
