package serve

import (
	"net/http"
	"testing"
)

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	return resp.StatusCode
}

// Without a join-time rule sync there is nothing to wait for: the server
// is ready from the first request.
func TestReadyzImmediateWithoutSnapshot(t *testing.T) {
	ts := newTestServer(t)
	if got := getStatus(t, ts.URL+"/readyz"); got != http.StatusOK {
		t.Errorf("/readyz = %d, want 200", got)
	}
}
