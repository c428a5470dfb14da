package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"

	"vzlens/internal/obs"
	"vzlens/internal/scenario"
)

// This file serves the counterfactual scenario engine: scenarios
// register through POST /api/scenarios (or preload via
// Options.Scenarios / vzserve's -scenario-file), and their
// baseline-vs-scenario diffs serve from GET /api/scenarios/{id}/diff.
// A diff is computed at most once per spec content: concurrent
// requests coalesce through a singleflight group keyed by the spec's
// content hash, and the serialized bytes persist in the result store
// under a content-scoped key — a restarted server replays the stored
// bytes verbatim, bit-identical, without re-simulating.

// maxScenarioBody bounds a POSTed spec document.
const maxScenarioBody = 1 << 16

// registerScenario validates and installs a spec under its ID.
// Re-registering an identical spec is idempotent; a different spec
// under a taken ID is a conflict (the store key embeds the content
// hash, so silently replacing would orphan stored diffs).
func (h *Handler) registerScenario(spec *scenario.Spec) (created bool, err error) {
	if _, err := spec.Compile(h.w); err != nil {
		return false, err
	}
	h.scenMu.Lock()
	defer h.scenMu.Unlock()
	if prev, ok := h.scenarios[spec.ID]; ok {
		if prev.Key() == spec.Key() {
			return false, nil
		}
		return false, fmt.Errorf("scenario id %q already registered with different content", spec.ID)
	}
	h.scenarios[spec.ID] = spec
	return true, nil
}

// scenarioInfo is one row of the GET /api/scenarios listing.
type scenarioInfo struct {
	ID   string `json:"id"`
	Key  string `json:"key"`
	Name string `json:"name,omitempty"`
}

func (h *Handler) listScenarios(w http.ResponseWriter, _ *http.Request) {
	h.scenMu.Lock()
	out := make([]scenarioInfo, 0, len(h.scenarios))
	for _, s := range h.scenarios {
		out = append(out, scenarioInfo{ID: s.ID, Key: s.Key(), Name: s.Name})
	}
	h.scenMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, map[string]any{"scenarios": out})
}

func (h *Handler) postScenario(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxScenarioBody))
	if err != nil {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			map[string]string{"error": fmt.Sprintf("spec larger than %d bytes", maxScenarioBody)})
		return
	}
	spec, err := scenario.ParseSpec(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	created, err := h.registerScenario(spec)
	if err != nil {
		status := http.StatusBadRequest
		if _, taken := h.scenarioByID(spec.ID); taken {
			status = http.StatusConflict
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, map[string]any{
		"id":   spec.ID,
		"key":  spec.Key(),
		"diff": "/api/scenarios/" + spec.ID + "/diff",
	})
}

func (h *Handler) scenarioByID(id string) (*scenario.Spec, bool) {
	h.scenMu.Lock()
	defer h.scenMu.Unlock()
	s, ok := h.scenarios[id]
	return s, ok
}

// computeDiff runs the full scenario simulation on this process's
// engine and serializes the diff in the canonical wire form (indented
// JSON plus trailing newline) — the same bytes whether produced here
// or loaded from the store.
func (h *Handler) computeDiff(ctx context.Context, spec *scenario.Spec) ([]byte, error) {
	diff, err := h.engine.Run(ctx, spec)
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(diff, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// persistDiff writes a serialized diff document to the store; failures
// are logged, not surfaced, because the request already has its bytes.
func (h *Handler) persistDiff(id, key string, data []byte) {
	if h.opts.Store == nil {
		return
	}
	if err := h.opts.Store.Put(key, data); err != nil {
		log.Printf("httpapi: persist scenario %s diff: %v", id, err)
	}
}

// scenarioDiff serves the baseline-vs-scenario diff for a registered
// scenario. The expensive path — two campaign simulations plus the
// diff — runs at most once per spec content: requests coalesce on the
// content key, and the serialized document round-trips through the
// result store so restarts serve the stored bytes verbatim.
func (h *Handler) scenarioDiff(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spec, ok := h.scenarioByID(id)
	if !ok {
		writeJSON(w, http.StatusNotFound,
			map[string]string{"error": fmt.Sprintf("unknown scenario %q", id)})
		return
	}
	ctx, span := obs.StartSpan(r.Context(), "scenario.diff")
	span.SetAttr("scenario", id)
	payload, err, shared := h.scenFlights.Do(spec.Key(), func() ([]byte, error) {
		key := h.storeKey("scenario", spec.Key())
		if h.opts.Store != nil {
			if stored, err := h.opts.Store.Get(key); err == nil {
				return stored, nil
			} else {
				logStoreMiss("scenario "+id, err)
			}
		}
		data, err := h.computeDiff(ctx, spec)
		if err != nil {
			return nil, err
		}
		h.persistDiff(id, key, data)
		return data, nil
	})
	if shared {
		h.met.followers.Inc()
	} else {
		h.met.leaders.Inc()
	}
	span.SetAttr("coalesced", shared)
	span.End()
	if err != nil {
		log.Printf("httpapi: scenario %s diff: %v", id, err)
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"error": fmt.Sprintf("scenario %s temporarily unavailable: %v", id, err)})
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(payload); err != nil {
		log.Printf("httpapi: write scenario %s diff: %v", id, err)
	}
}
