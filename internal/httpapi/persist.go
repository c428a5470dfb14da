package httpapi

import (
	"encoding/json"
	"errors"
	"log"

	"vzlens/internal/core"
	"vzlens/internal/resultstore"
)

// This file is the bridge between the handler's table cache and the
// crash-safe result store: experiment tables persist as the same JSON
// document the API serves (campaigns persist in the fact lake, see
// query.go). Every read path treats the store as a cache, never an
// authority — a missing, corrupt, or mismatched entry silently falls
// through to recomputation (the store quarantines corrupt entries
// itself).

// storeKey scopes an entry to the world configuration that produced
// it, so a store directory reused across differently-configured
// servers never serves stale results. Workers is deliberately
// excluded: campaign output is bit-identical at any worker count.
func (h *Handler) storeKey(kind, id string) string {
	return kind + "-" + id + "-" + h.w.Config.Scope()
}

// storedTable loads a previously computed experiment table.
func (h *Handler) storedTable(id string) (*core.Table, bool) {
	if h.opts.Store == nil {
		return nil, false
	}
	payload, err := h.opts.Store.Get(h.storeKey("table", id))
	if err != nil {
		logStoreMiss("table "+id, err)
		return nil, false
	}
	var doc tableJSON
	if err := json.Unmarshal(payload, &doc); err != nil {
		log.Printf("httpapi: store entry for table %s undecodable: %v", id, err)
		return nil, false
	}
	return &core.Table{Caption: doc.Caption, Header: doc.Header, Rows: doc.Rows}, true
}

// persistTable writes a freshly computed table back to the store.
// Persistence failures are logged, not surfaced: the request already
// has its result.
func (h *Handler) persistTable(id string, t *core.Table) {
	if h.opts.Store == nil {
		return
	}
	payload, err := json.Marshal(tableJSON{Caption: t.Caption, Header: t.Header, Rows: t.Rows})
	if err != nil {
		log.Printf("httpapi: encode table %s for store: %v", id, err)
		return
	}
	if err := h.opts.Store.Put(h.storeKey("table", id), payload); err != nil {
		log.Printf("httpapi: persist table %s: %v", id, err)
	}
}

// logStoreMiss logs store read failures that matter. A plain miss is
// the normal cold path and stays quiet; corruption is loud because an
// entry was quarantined.
func logStoreMiss(what string, err error) {
	if errors.Is(err, resultstore.ErrNotFound) {
		return
	}
	if errors.Is(err, resultstore.ErrCorrupt) {
		log.Printf("httpapi: store entry for %s corrupt, quarantined and recomputing: %v", what, err)
		return
	}
	log.Printf("httpapi: store read for %s: %v", what, err)
}
