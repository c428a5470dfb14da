package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vzlens/internal/world"
)

func mustBuild(cfg world.Config) *world.World {
	w, err := world.Build(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

var testHandler = NewWithOptions(mustBuild(world.Config{Step: 6}), Options{})

func get(t *testing.T, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	testHandler.ServeHTTP(rec, req)
	return rec
}

func TestHealth(t *testing.T) {
	rec := get(t, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Errorf("body = %s", rec.Body.String())
	}
}

func TestListExperiments(t *testing.T) {
	rec := get(t, "/api/experiments")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var out struct {
		Experiments []string `json:"experiments"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Experiments) != 22 {
		t.Errorf("experiments = %d, want 22", len(out.Experiments))
	}
	seen := map[string]bool{}
	for _, id := range out.Experiments {
		seen[id] = true
	}
	for _, want := range []string{"fig1", "fig12", "table1", "fig21"} {
		if !seen[want] {
			t.Errorf("missing %s", want)
		}
	}
}

func TestExperimentJSON(t *testing.T) {
	rec := get(t, "/api/experiments/table1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("content type = %q", ct)
	}
	var table struct {
		Caption string     `json:"caption"`
		Header  []string   `json:"header"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &table); err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 11 { // 10 providers + summary row
		t.Errorf("rows = %d", len(table.Rows))
	}
	if table.Rows[0][0] != "8048" {
		t.Errorf("first row = %v", table.Rows[0])
	}
}

func TestExperimentCSV(t *testing.T) {
	rec := get(t, "/api/experiments/fig4.csv")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/csv") {
		t.Errorf("content type = %q", ct)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "ALBA-1") {
		t.Errorf("CSV missing ALBA row: %s", body)
	}
}

func TestExperimentNotFound(t *testing.T) {
	rec := get(t, "/api/experiments/fig99")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "unknown experiment") {
		t.Errorf("body = %s", rec.Body.String())
	}
}

func TestCountrySummary(t *testing.T) {
	rec := get(t, "/api/countries/ve")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Code            string  `json:"code"`
		Cables2024      int     `json:"cables_2024"`
		Facilities2024  int     `json:"facilities_2024"`
		MedianMbps2023  float64 `json:"median_mbps_july2023"`
		AtlasProbes2024 int     `json:"atlas_probes_2024"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Code != "VE" || out.Cables2024 != 6 || out.Facilities2024 != 4 {
		t.Errorf("summary = %+v", out)
	}
	if out.MedianMbps2023 < 2.5 || out.MedianMbps2023 > 3.3 {
		t.Errorf("mbps = %v", out.MedianMbps2023)
	}
	if out.AtlasProbes2024 != 30 {
		t.Errorf("probes = %v", out.AtlasProbes2024)
	}
}

func TestCountryNotFound(t *testing.T) {
	for _, cc := range []string{"US", "ZZ"} {
		rec := get(t, "/api/countries/"+cc)
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404", cc, rec.Code)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/api/experiments", nil)
	rec := httptest.NewRecorder()
	testHandler.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", rec.Code)
	}
}

func TestSignaturesEndpoint(t *testing.T) {
	rec := get(t, "/api/signatures")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var out struct {
		Signatures []struct {
			Dataset string `json:"dataset"`
			Kind    string `json:"kind"`
		} `json:"signatures"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Signatures) < 4 {
		t.Errorf("signatures = %d, want >= 4", len(out.Signatures))
	}
	kinds := map[string]bool{}
	for _, s := range out.Signatures {
		kinds[s.Kind] = true
	}
	for _, want := range []string{"stagnation", "contraction", "recovery"} {
		if !kinds[want] {
			t.Errorf("missing %s signature", want)
		}
	}
}
