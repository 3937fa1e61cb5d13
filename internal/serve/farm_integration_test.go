package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omini/internal/resilience"
	"omini/internal/sitegen"
)

func writeFileT(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRuleszEndpoint: the farm inspection view reports each cached
// rule with its version, hit count and drift-check readiness.
func TestRuleszEndpoint(t *testing.T) {
	ts := newTestServer(t)
	page := sitegen.Canoe()
	for i := 0; i < 2; i++ {
		if resp, body := post(t, ts.URL+"/extract?site="+page.Site, page.HTML); resp.StatusCode != http.StatusOK {
			t.Fatalf("extract %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/rulesz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rulesz status = %d", resp.StatusCode)
	}
	var out ruleszResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("bad rulesz JSON: %v", err)
	}
	if out.Rules != 1 || len(out.Sites) != 1 {
		t.Fatalf("rulesz = %+v, want one rule", out)
	}
	row := out.Sites[0]
	if row.Site != page.Site || row.Version != 1 || row.Separator == "" {
		t.Fatalf("rulesz row = %+v", row)
	}
	if row.SignaturePaths == 0 {
		t.Fatal("learned rule has no training signature; drift checks are dead")
	}
	if row.Hits < 1 {
		t.Fatalf("rulesz hits = %d after a fast-path request, want >= 1", row.Hits)
	}
}

// TestRuleStorePersistsAcrossServers: rules learned by one server are
// served fast-path by a new server booted on the same -rule-store.
func TestRuleStorePersistsAcrossServers(t *testing.T) {
	store := filepath.Join(t.TempDir(), "rules.json")
	page := sitegen.LOC()

	s1 := New(Config{RuleStorePath: store, Stats: resilience.NewStats()})
	ts1 := httptest.NewServer(s1)
	if resp, body := post(t, ts1.URL+"/extract?site="+page.Site, page.HTML); resp.StatusCode != http.StatusOK {
		t.Fatalf("learn: status %d: %s", resp.StatusCode, body)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := New(Config{RuleStorePath: store, Stats: resilience.NewStats()})
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	resp, body := post(t, ts2.URL+"/extract?site="+page.Site, page.HTML)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted extract: status %d: %s", resp.StatusCode, body)
	}
	var out objectResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if !out.FromRule {
		t.Fatal("first request after restart should replay the persisted rule")
	}
}

// TestCorruptRuleStoreServesCold: a torn store file costs a cold
// cache, never the process.
func TestCorruptRuleStoreServesCold(t *testing.T) {
	store := filepath.Join(t.TempDir(), "rules.json")
	writeFileT(t, store, "{torn")
	s := New(Config{RuleStorePath: store, Stats: resilience.NewStats()})
	ts := httptest.NewServer(s)
	defer ts.Close()
	page := sitegen.Canoe()
	if resp, body := post(t, ts.URL+"/extract?site="+page.Site, page.HTML); resp.StatusCode != http.StatusOK {
		t.Fatalf("extract on corrupt store: status %d: %s", resp.StatusCode, body)
	}
	if s.Farm().Len() != 1 {
		t.Fatalf("Len = %d, want 1 freshly learned rule", s.Farm().Len())
	}
}

// TestMetricszExposesFarmSeries: the farm's counters and the
// fast/slow path latency split surface on this server's /metricsz.
func TestMetricszExposesFarmSeries(t *testing.T) {
	ts := newTestServer(t)
	page := sitegen.Canoe()
	for i := 0; i < 2; i++ {
		post(t, ts.URL+"/extract?site="+page.Site, page.HTML)
	}
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := readAll(t, resp)
	for _, want := range []string{
		"farm_hits", "farm_misses", "farm_learns", "farm_drift_checks",
		"farm_rules", "farm_store_bytes",
		`farm_path_seconds_quantile{path="fast"`,
		`farm_path_seconds_quantile{path="slow"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metricsz missing %q", want)
		}
	}
}
