package integration

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vzlens/internal/httpapi"
)

// TestHTTPServerEndToEnd drives the API over a real TCP listener, as a
// dashboard would: list the experiments, fetch one as JSON and CSV, pull
// a country summary, and read the crisis signatures.
func TestHTTPServerEndToEnd(t *testing.T) {
	srv := httptest.NewServer(httpapi.NewWithOptions(testWorld, httpapi.Options{}))
	defer srv.Close()

	fetch := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := fetch("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q", code, body)
	}

	code, body := fetch("/api/experiments")
	if code != 200 {
		t.Fatalf("experiments = %d", code)
	}
	var listing struct {
		Experiments []string `json:"experiments"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Experiments) != 22 {
		t.Errorf("experiments = %d", len(listing.Experiments))
	}

	if code, body := fetch("/api/experiments/table1"); code != 200 || !strings.Contains(body, "4,330,868") {
		t.Errorf("table1 = %d: %.120s", code, body)
	}
	if code, body := fetch("/api/experiments/fig4.csv"); code != 200 || !strings.Contains(body, "ALBA-1") {
		t.Errorf("fig4.csv = %d: %.120s", code, body)
	}
	if code, body := fetch("/api/countries/VE"); code != 200 || !strings.Contains(body, `"atlas_probes_2024": 30`) {
		t.Errorf("countries/VE = %d: %.200s", code, body)
	}
	if code, body := fetch("/api/signatures"); code != 200 || !strings.Contains(body, "stagnation") {
		t.Errorf("signatures = %d: %.120s", code, body)
	}
	if code, _ := fetch("/api/experiments/nope"); code != 404 {
		t.Errorf("unknown experiment = %d, want 404", code)
	}
}
