package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omini/internal/farm"
	"omini/internal/obs"
	"omini/internal/serve"
	"omini/internal/sitegen"
)

// writePage materializes a replica page for CLI runs.
func writePage(t *testing.T, page sitegen.Page) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), page.Name+".html")
	if err := os.WriteFile(path, []byte(page.HTML), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunTextOutput(t *testing.T) {
	path := writePage(t, sitegen.Canoe())
	var out strings.Builder
	if err := run(&out, []string{path}); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{"separator: table", "objects:   12", "Maple Leafs"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	path := writePage(t, sitegen.LOC())
	var out strings.Builder
	if err := run(&out, []string{"-json", path}); err != nil {
		t.Fatalf("run: %v", err)
	}
	var res resultJSON
	if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if res.Separator != "hr" && res.Separator != "pre" {
		t.Errorf("separator = %q", res.Separator)
	}
	if len(res.Objects) != 20 {
		t.Errorf("objects = %d, want 20", len(res.Objects))
	}
}

func TestRunTreeOutput(t *testing.T) {
	path := writePage(t, sitegen.LOC())
	var out strings.Builder
	if err := run(&out, []string{"-tree", "-depth", "2", path}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "html") || !strings.Contains(out.String(), "body") {
		t.Errorf("tree output = %q", out.String())
	}
}

func TestRunWithRuleCache(t *testing.T) {
	page := sitegen.Canoe()
	path := writePage(t, page)
	rulesPath := filepath.Join(t.TempDir(), "rules.json")
	var out strings.Builder
	// First run learns and persists a rule.
	if err := run(&out, []string{"-rules", rulesPath, "-site", page.Site, path}); err != nil {
		t.Fatalf("first run: %v", err)
	}
	data, err := os.ReadFile(rulesPath)
	if err != nil {
		t.Fatalf("rules not persisted: %v", err)
	}
	if !strings.Contains(string(data), page.Site) {
		t.Errorf("rules file missing site: %s", data)
	}
	// Second run replays it.
	out.Reset()
	if err := run(&out, []string{"-rules", rulesPath, "-site", page.Site, path}); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !strings.Contains(out.String(), "objects:   12") {
		t.Errorf("replay output:\n%s", out.String())
	}
}

// TestRuleCacheIsServeRuleStore: the -rules file is the wrapper farm's
// snapshot, so a server booted on it with RuleStorePath serves the site
// from the cached rule, and the server's /rulesz?view=sync dump works
// as a -rules file in turn.
func TestRuleCacheIsServeRuleStore(t *testing.T) {
	page := sitegen.Canoe()
	path := writePage(t, page)
	store := filepath.Join(t.TempDir(), "rules.json")
	var out strings.Builder
	if err := run(&out, []string{"-rules", store, "-site", page.Site, path}); err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, err := os.ReadFile(store)
	if err != nil {
		t.Fatalf("rules not persisted: %v", err)
	}
	var envelope struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(raw, &envelope); err != nil || envelope.Version != farm.SnapshotVersion {
		t.Fatalf("store envelope version = %d (err %v), want %d", envelope.Version, err, farm.SnapshotVersion)
	}
	snap, err := farm.LoadSnapshot(store)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if len(snap.Rules) != 1 || snap.Rules[0].Site != page.Site {
		t.Fatalf("snapshot rules = %+v, want one rule for %s", snap.Rules, page.Site)
	}

	stats := obs.NewRegistry()
	srv := serve.New(serve.Config{
		RuleStorePath: store,
		Stats:         stats,
		Logger:        obs.NewLogger(io.Discard, obs.LevelError),
	})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/extract?site="+page.Site, strings.NewReader(page.HTML)))
	var resp struct {
		FromRule bool              `json:"fromRule"`
		Objects  []json.RawMessage `json:"objects"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("extract: status %d (err %v): %s", rec.Code, err, rec.Body)
	}
	if !resp.FromRule || len(resp.Objects) != 12 {
		t.Fatalf("fromRule = %v, objects = %d; want the cached rule's 12 objects", resp.FromRule, len(resp.Objects))
	}
	if got := stats.Get(farm.SeriesLearns); got != 0 {
		t.Fatalf("server booted on the CLI store ran %d discoveries, want 0", got)
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/rulesz?view=sync", nil))
	dump := filepath.Join(t.TempDir(), "dump.json")
	if err := os.WriteFile(dump, rec.Body.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(&out, []string{"-rules", dump, "-site", page.Site, path}); err != nil {
		t.Fatalf("run on the server dump: %v", err)
	}
	// A replayed rule leaves the store clean, so the file is not rewritten.
	if after, err := os.ReadFile(dump); err != nil || !bytes.Equal(after, rec.Body.Bytes()) {
		t.Fatalf("run on the server dump relearned and rewrote it (err %v)", err)
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(&out, []string{}); err == nil {
		t.Error("no arguments accepted")
	}
	if err := run(&out, []string{"/no/such/file.html"}); err == nil {
		t.Error("missing file accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.html")
	if err := os.WriteFile(empty, []byte("<html><body>prose</body></html>"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&out, []string{empty}); err == nil {
		t.Error("object-free page extracted")
	}
}
