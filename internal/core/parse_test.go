package core

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"omini/internal/corpus"
	"omini/internal/govern"
	"omini/internal/htmlparse"
	"omini/internal/obs"
	"omini/internal/sitegen"
	"omini/internal/tagtree"
	"omini/internal/tidy"
)

// parsePages is the page set the fused Phase 1 pass is pinned on: the
// golden pages (bench pages, paper replicas, one page per corpus site),
// two pages from every test-set site, and the committed pathological
// corpus.
func parsePages(t *testing.T) map[string]string {
	t.Helper()
	pages := make(map[string]string)
	for _, size := range corpus.BenchSizes {
		p := corpus.BenchPage(size)
		pages[p.Name] = p.HTML
	}
	for _, p := range []sitegen.Page{sitegen.Canoe(), sitegen.LOC()} {
		pages[p.Name] = p.HTML
	}
	for _, spec := range corpus.AllSpecs() {
		p := spec.Page(1)
		pages[p.Name] = p.HTML
	}
	c := &corpus.Corpus{PagesPerSite: 2}
	for _, site := range c.TestSet() {
		for _, p := range site.Pages {
			pages[p.Name] = p.HTML
		}
	}
	dir := filepath.Join("..", "..", "testdata", "pathological")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".html") {
			continue
		}
		body, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		pages[ent.Name()] = string(body)
	}
	return pages
}

// threePass is Phase 1 as three materializing passes under one guard —
// the whole raw token slice, then the whole normalized slice, then the
// tree — which the fused pass replaces.
func threePass(src string, g *govern.Guard) (*tagtree.Node, error) {
	if err := g.Input(len(src)); err != nil {
		return nil, err
	}
	raw, err := htmlparse.NewLexer(src).Lex(nil, math.MaxInt, g)
	if err != nil {
		return nil, err
	}
	n := tidy.NewNormalizer(g)
	for i := range raw {
		if err := n.Feed(&raw[i]); err != nil {
			return nil, err
		}
	}
	if err := n.Close(); err != nil {
		return nil, err
	}
	b := tagtree.NewBuilder(g, 0)
	for _, tok := range n.Drain() {
		if err := b.Feed(&tok); err != nil {
			return nil, err
		}
	}
	return b.Finish()
}

// limitKind returns the govern limit kind err carries, or "".
func limitKind(err error) string {
	var lim *govern.ErrLimitExceeded
	if errors.As(err, &lim) {
		return lim.Kind
	}
	return ""
}

// sameTree compares two trees node by node: path, child outline, text,
// attributes and the cached metrics.
func sameTree(t *testing.T, got, want *tagtree.Node) {
	t.Helper()
	type pair struct{ a, b *tagtree.Node }
	stack := []pair{{got, want}}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		a, b := p.a, p.b
		if pa, pb := tagtree.Path(a), tagtree.Path(b); pa != pb {
			t.Fatalf("node at %s, want %s", pa, pb)
		}
		if tagtree.Outline(a) != tagtree.Outline(b) || a.Text != b.Text ||
			!reflect.DeepEqual(a.Attrs, b.Attrs) || a.Fanout() != b.Fanout() ||
			a.NodeSize() != b.NodeSize() || a.TagCount() != b.TagCount() {
			t.Fatalf("node %s differs: %q %q size %d/%d count %d/%d",
				tagtree.Path(a), tagtree.Outline(a), tagtree.Outline(b),
				a.NodeSize(), b.NodeSize(), a.TagCount(), b.TagCount())
		}
		for i := range a.Children {
			stack = append(stack, pair{a.Children[i], b.Children[i]})
		}
	}
}

// TestFusedParseMatchesThreePass pins the fused Phase 1 pass on every
// golden, corpus and pathological page: under the production limits it
// builds exactly the tree of tagtree.Build(tidy.NormalizeTokens(src))
// and charges the guard exactly what the three materializing passes
// did — every raw token plus every normalized token, and the same
// nodes — or fails with the same limit kind.
func TestFusedParseMatchesThreePass(t *testing.T) {
	pages := parsePages(t)
	names := make([]string, 0, len(pages))
	for name := range pages {
		names = append(names, name)
	}
	sort.Strings(names)
	e := New(Options{})
	ctx := context.Background()
	for _, name := range names {
		src := pages[name]
		t.Run(name, func(t *testing.T) {
			g := govern.NewGuard(ctx, DefaultLimits())
			root, err := e.ParseGoverned(ctx, src, g)
			ref := govern.NewGuard(ctx, DefaultLimits())
			refRoot, refErr := threePass(src, ref)
			if err != nil || refErr != nil {
				// Only the adversarial pages may blow a budget.
				if !strings.HasSuffix(name, ".html") || limitKind(err) == "" || limitKind(err) != limitKind(refErr) {
					t.Fatalf("fused err = %v, three-pass err = %v; want the same limit kind", err, refErr)
				}
				return
			}
			if err := tagtree.Validate(root); err != nil {
				t.Fatal(err)
			}
			want, err := tagtree.Build(tidy.NormalizeTokens(src))
			if err != nil {
				t.Fatal(err)
			}
			sameTree(t, root, want)
			sameTree(t, root, refRoot)

			tokens, nodes, _ := g.Charges()
			refTokens, refNodes, _ := ref.Charges()
			if wantTokens := len(htmlparse.Tokenize(src)) + len(tidy.NormalizeTokens(src)); tokens != wantTokens || refTokens != wantTokens {
				t.Errorf("token charge = %d (three-pass %d), want %d", tokens, refTokens, wantTokens)
			}
			if nodes != refNodes || nodes != root.TagCount() {
				t.Errorf("node charge = %d, three-pass %d, tree has %d", nodes, refNodes, root.TagCount())
			}
		})
	}
}

// TestFusedParseSkipNormalize checks the ablation path: without tidy
// the fused pass builds the raw stream's tree, as tagtree.Build does.
func TestFusedParseSkipNormalize(t *testing.T) {
	src := corpus.BenchPage("medium").HTML
	root, err := New(Options{SkipNormalize: true}).ParseGoverned(context.Background(), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tagtree.Build(htmlparse.Tokenize(src))
	if err != nil {
		t.Fatal(err)
	}
	sameTree(t, root, want)
}

// TestFusedParseLimits checks that a page over any one Phase 1 budget
// still fails with that budget's kind, through Extract and through the
// cached-rule path alike.
func TestFusedParseLimits(t *testing.T) {
	src := corpus.BenchPage("medium").HTML
	cases := []struct {
		kind string
		lim  Limits
	}{
		{govern.KindInput, Limits{MaxInputBytes: len(src) - 1}},
		{govern.KindTokens, Limits{MaxTokens: 1000}},
		{govern.KindNodes, Limits{MaxNodes: 300}},
		{govern.KindDepth, Limits{MaxTreeDepth: 4}},
	}
	learned, err := New(Options{}).Extract(src)
	if err != nil {
		t.Fatal(err)
	}
	rule := learned.Rule("bench")
	for _, c := range cases {
		t.Run(c.kind, func(t *testing.T) {
			e := New(Options{Limits: c.lim})
			if _, err := e.Extract(src); limitKind(err) != c.kind {
				t.Errorf("Extract err = %v, want limit kind %s", err, c.kind)
			}
			if _, err := e.ExtractWithRule(src, rule); limitKind(err) != c.kind {
				t.Errorf("ExtractWithRule err = %v, want limit kind %s", err, c.kind)
			}
		})
	}
}

// TestFusedParseSpans checks that the fused pass still reports Phase 1
// as three spans, tokenize → tidy → build, laid end to end from the
// pass's start, and that they land in the phase histograms once per
// parse.
func TestFusedParseSpans(t *testing.T) {
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	ctx, rec := obs.WithTraceRecorder(ctx, false)
	if _, err := New(Options{}).ParseGoverned(ctx, corpus.BenchPage("medium").HTML, nil); err != nil {
		t.Fatal(err)
	}
	spans := rec.Spans()
	want := []string{"tokenize", "tidy", "build"}
	if len(spans) != len(want) {
		t.Fatalf("spans = %+v, want %v", spans, want)
	}
	for i, sp := range spans {
		if sp.Name != want[i] || sp.DurationNS <= 0 {
			t.Errorf("span %d = %s (%d ns), want %s with a positive duration", i, sp.Name, sp.DurationNS, want[i])
		}
		if i > 0 && sp.StartNS != spans[i-1].StartNS+spans[i-1].DurationNS {
			t.Errorf("span %s starts at %d, want the end of %s (%d)",
				sp.Name, sp.StartNS, spans[i-1].Name, spans[i-1].StartNS+spans[i-1].DurationNS)
		}
		if n := reg.Histogram(obs.PhaseSeries(want[i])).Count(); n != 1 {
			t.Errorf("phase %s histogram count = %d, want 1", want[i], n)
		}
	}
}

// TestSampledTraceReportsAllocs checks that a trace taken with
// allocation sampling still reports per-span allocation deltas on the
// spans timed start to end.
func TestSampledTraceReportsAllocs(t *testing.T) {
	ctx, _ := obs.WithTraceRecorder(context.Background(), true)
	res, err := New(Options{}).ExtractContext(ctx, corpus.BenchPage("medium").HTML)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ph := range res.Trace.Phases {
		total += ph.AllocBytes
	}
	if total <= 0 {
		t.Errorf("sampled trace reports no allocation bytes: %+v", res.Trace.Phases)
	}
}
