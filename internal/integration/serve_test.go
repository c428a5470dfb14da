package integration

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/httpapi"
	"vzlens/internal/registry"
	"vzlens/internal/world"
)

// bootServer serves h on a loopback listener and returns the base URL
// plus a channel that carries ServeGraceful's result.
func bootServer(t *testing.T, h http.Handler, drain time.Duration) (string, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- httpapi.ServeGraceful(srv, ln, drain, syscall.SIGUSR1) }()
	t.Cleanup(func() { srv.Close() })
	return "http://" + ln.Addr().String(), done
}

// TestServerDegradesAndRecovers boots the real HTTP server over a world
// whose campaign simulator fails on the first attempt: the campaign
// endpoint answers 503 with Retry-After, plain endpoints keep serving,
// and the retry succeeds without a restart.
func TestServerDegradesAndRecovers(t *testing.T) {
	w := testWorld
	calls := 0
	h := httpapi.NewWithOptions(w, httpapi.Options{
		ChaosCampaign: func() (*atlas.ChaosCampaign, error) {
			calls++
			if calls == 1 {
				return nil, errors.New("collector unreachable")
			}
			return w.ChaosCampaign(), nil
		},
	})
	base, _ := bootServer(t, h, time.Second)

	get := func(path string) (*http.Response, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(body)
	}

	resp, body := get("/api/experiments/fig6")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("injected failure: status = %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After header")
	}

	// Degradation is contained: unrelated endpoints still serve.
	if resp, _ := get("/api/experiments/fig4"); resp.StatusCode != http.StatusOK {
		t.Errorf("fig4 during campaign outage: status = %d", resp.StatusCode)
	}
	if resp, _ := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz during campaign outage: status = %d", resp.StatusCode)
	}

	// The failure was not cached: the retry simulates again and serves.
	resp, body = get("/api/experiments/fig6")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry: status = %d, want 200: %s", resp.StatusCode, body)
	}
	if calls != 2 {
		t.Errorf("simulator calls = %d, want 2", calls)
	}
	if _, body := get("/readyz"); !strings.Contains(body, `"chaos": true`) {
		t.Errorf("readyz after recovery: %s", body)
	}
}

// TestServerDrainsOnSignal sends the server its shutdown signal while a
// slow request is in flight and requires that the request completes and
// ServeGraceful returns cleanly within the drain deadline.
func TestServerDrainsOnSignal(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		<-release
		fmt.Fprint(w, "drained")
	})
	base, done := bootServer(t, mux, 5*time.Second)

	var body string
	var reqErr error
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		resp, err := http.Get(base + "/slow")
		if err != nil {
			reqErr = err
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		body = string(b)
	}()

	// Wait for the request to be in flight, then signal shutdown.
	time.Sleep(100 * time.Millisecond)
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGUSR1); err != nil {
		t.Fatal(err)
	}
	// The server must not return while the request is still running.
	select {
	case err := <-done:
		t.Fatalf("ServeGraceful returned before drain: %v", err)
	case <-time.After(200 * time.Millisecond):
	}
	once.Do(func() { close(release) })

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeGraceful = %v, want clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeGraceful did not return after drain")
	}
	<-finished
	if reqErr != nil {
		t.Fatalf("in-flight request failed during drain: %v", reqErr)
	}
	if body != "drained" {
		t.Errorf("in-flight response = %q", body)
	}
}

// TestServerDrainDeadline: a request that outlives the drain deadline
// is forced closed and ServeGraceful reports the incomplete drain.
func TestServerDrainDeadline(t *testing.T) {
	hang := make(chan struct{})
	defer close(hang)
	mux := http.NewServeMux()
	mux.HandleFunc("/hang", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-hang:
		case <-r.Context().Done():
		}
	})
	base, done := bootServer(t, mux, 100*time.Millisecond)

	go func() { http.Get(base + "/hang") }()
	time.Sleep(100 * time.Millisecond)
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGUSR1); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("ServeGraceful = nil, want drain-incomplete error")
		}
		if !strings.Contains(err.Error(), "drain incomplete") {
			t.Errorf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeGraceful hung past the drain deadline")
	}
}

// TestWorldBuildWithSourcesServes ties ingestion degradation to serving:
// a world whose registry source is persistently down still boots, serves
// experiments from the synthetic substitute, and reports the degraded
// axis on /readyz.
func TestWorldBuildWithSourcesServes(t *testing.T) {
	w, err := world.BuildWithSources(context.Background(), world.Config{Step: 6}, world.SourceSet{
		Registry: func(context.Context) (*registry.Table, error) {
			return nil, errors.New("registry mirror down")
		},
	})
	if err != nil {
		t.Fatalf("degraded build failed outright: %v", err)
	}
	base, _ := bootServer(t, httpapi.NewWithOptions(w, httpapi.Options{}), time.Second)

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz status = %d (degraded worlds still serve)", resp.StatusCode)
	}
	for _, want := range []string{`"degraded"`, `"registry"`, "registry mirror down"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("readyz missing %s: %s", want, body)
		}
	}

	// The synthetic substitute answers data queries (fig2 is built from
	// the registry axis).
	resp, err = http.Get(base + "/api/experiments/fig2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("fig2 over degraded registry: status = %d", resp.StatusCode)
	}
}
