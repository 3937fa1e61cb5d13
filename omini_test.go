package omini

import (
	"errors"
	"strings"
	"testing"

	"omini/internal/sitegen"
)

func TestExtractQuick(t *testing.T) {
	page := sitegen.LOC()
	objects, err := Extract(page.HTML)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if len(objects) != page.Truth.ObjectCount {
		t.Fatalf("objects = %d, want %d", len(objects), page.Truth.ObjectCount)
	}
}

func TestExtractorLearnAndReplay(t *testing.T) {
	page := sitegen.Canoe()
	e := NewExtractor()
	res, rule, err := e.Learn(page.Site, page.HTML)
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	if rule.Site != page.Site || rule.Separator != "table" {
		t.Fatalf("rule = %+v", rule)
	}
	store := NewRuleStore()
	if err := store.Put(rule); err != nil {
		t.Fatal(err)
	}
	cached, err := store.Get(page.Site)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := e.ExtractWithRule(page.HTML, cached)
	if err != nil {
		t.Fatalf("ExtractWithRule: %v", err)
	}
	if len(fast.Objects) != len(res.Objects) {
		t.Errorf("fast objects = %d, full = %d", len(fast.Objects), len(res.Objects))
	}
}

func TestExtractorOptions(t *testing.T) {
	page := sitegen.Canoe()
	noRefine := NewExtractor(WithoutRefinement())
	res, err := noRefine.ExtractResult(page.HTML)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) != len(res.Raw) {
		t.Error("WithoutRefinement ignored")
	}

	hf := NewExtractor(WithSubtreeHeuristic("HF"), WithSeparatorHeuristics("PP", "SD"))
	hfRes, err := hf.ExtractResult(page.HTML)
	if err != nil {
		t.Fatal(err)
	}
	if hfRes.SubtreePath == res.SubtreePath {
		t.Error("WithSubtreeHeuristic(HF) ignored on a chrome-heavy page")
	}

	// Unknown names keep defaults and do not panic.
	def := NewExtractor(WithSubtreeHeuristic("nope"), WithSeparatorHeuristics("nope"))
	if _, err := def.ExtractResult(page.HTML); err != nil {
		t.Fatal(err)
	}
}

func TestExtractErrNoObjects(t *testing.T) {
	if _, err := Extract(`<html><body>prose only</body></html>`); !errors.Is(err, ErrNoObjects) {
		t.Errorf("err = %v, want ErrNoObjects", err)
	}
}

func TestRenderTree(t *testing.T) {
	out, err := RenderTree(sitegen.LOC().HTML, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "html") || !strings.Contains(out, "body") {
		t.Errorf("render = %q", out)
	}
	if _, err := RenderTree("", 1); err == nil {
		t.Error("RenderTree of empty input should error")
	}
}

func TestSeparatorProbabilityExposed(t *testing.T) {
	probs := SeparatorProbability()
	if probs["PP"][0] != 0.85 {
		t.Errorf("PP rank-1 prob = %v", probs["PP"][0])
	}
}

func TestFindNextPage(t *testing.T) {
	href, ok := FindNextPage(`<html><body><ul><li>a</li></ul><a href="/p2">Next page</a></body></html>`)
	if !ok || href != "/p2" {
		t.Errorf("FindNextPage = %q, %v", href, ok)
	}
	if _, ok := FindNextPage(""); ok {
		t.Error("FindNextPage on empty input succeeded")
	}
	if _, ok := FindNextPage(`<html><body><p>no nav</p></body></html>`); ok {
		t.Error("FindNextPage found a link on a linkless page")
	}
}

func TestSelectPublicAPI(t *testing.T) {
	html := `<html><body><ul><li><a href="/a">alpha</a></li><li><a href="/b">beta</a></li></ul></body></html>`
	texts, err := Select(html, "ul > li a")
	if err != nil {
		t.Fatal(err)
	}
	if len(texts) != 2 || texts[0] != "alpha" || texts[1] != "beta" {
		t.Errorf("Select = %v", texts)
	}
	hrefs, err := SelectAttr(html, "li a", "href")
	if err != nil {
		t.Fatal(err)
	}
	if len(hrefs) != 2 || hrefs[0] != "/a" || hrefs[1] != "/b" {
		t.Errorf("SelectAttr = %v", hrefs)
	}
	if _, err := Select(html, ">"); err == nil {
		t.Error("bad selector accepted")
	}
	if _, err := Select("", "a"); err == nil {
		t.Error("empty document accepted")
	}
	if _, err := SelectAttr("", "a", "href"); err == nil {
		t.Error("SelectAttr empty document accepted")
	}
	if _, err := SelectAttr(html, "][", "href"); err == nil {
		t.Error("SelectAttr bad selector accepted")
	}
}
