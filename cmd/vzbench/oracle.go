package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"strings"

	"vzlens/internal/atlas"
	"vzlens/internal/core"
	"vzlens/internal/dnsplane"
	"vzlens/internal/facts"
	"vzlens/internal/query"
	"vzlens/internal/world"
)

// The oracles answer every request the way a correct server must,
// computed in this process from the same world configuration vzserve
// -quick builds (seed 0, quarterly snapshots). They share no state with
// the server: DNS answers come from a fresh resolver, query and
// experiment documents from a read-only open of the lake the server
// wrote.

// dnsWant returns the expected response to every packet. The oracle has
// no admission gate, so a response the server shed with REFUSED does
// not match.
func dnsWant(w *world.World, reqs []dnsReq) [][]byte {
	res := dnsplane.NewResolver(w, 0)
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		out[i], _ = res.Handle(r.pkt, nil)
	}
	return out
}

// httpOracle renders expected HTTP bodies from a lake directory.
type httpOracle struct {
	w    *world.World
	lake *facts.Lake
	eng  *query.Engine
	exps map[string]core.Experiment
	tc   *atlas.TraceCampaign
	cc   *atlas.ChaosCampaign
}

func newHTTPOracle(w *world.World, lakeDir string) (*httpOracle, error) {
	lake, err := facts.Open(lakeDir, w.Config.Scope())
	if err != nil {
		return nil, err
	}
	if !lake.Ready() {
		return nil, fmt.Errorf("oracle: no committed lake in %s", lakeDir)
	}
	o := &httpOracle{w: w, lake: lake, eng: query.New(lake), exps: map[string]core.Experiment{}}
	for _, e := range core.Experiments() {
		o.exps[e.ID] = e
	}
	return o, nil
}

// body is the document a GET of path must return.
func (o *httpOracle) body(path string) ([]byte, error) {
	u, err := url.Parse(path)
	if err != nil {
		return nil, err
	}
	if u.Path == "/api/query" {
		p, err := query.ParseParams(u.Query())
		if err != nil {
			return nil, err
		}
		res, err := o.eng.Run(p)
		if err != nil {
			return nil, err
		}
		return indentJSON(res)
	}
	id, ok := strings.CutPrefix(u.Path, "/api/experiments/")
	if !ok {
		return nil, fmt.Errorf("oracle: no rendering for %s", path)
	}
	id, csv := strings.CutSuffix(id, ".csv")
	exp, ok := o.exps[id]
	if !ok {
		return nil, fmt.Errorf("oracle: unknown experiment %q", id)
	}
	if err := o.campaigns(exp.Campaign); err != nil {
		return nil, err
	}
	table := exp.Run(o.w, o.tc, o.cc)
	if csv {
		return []byte(table.CSV()), nil
	}
	return indentJSON(struct {
		Caption string     `json:"caption"`
		Header  []string   `json:"header"`
		Rows    [][]string `json:"rows"`
	}{table.Caption, table.Header, table.Rows})
}

// campaigns reconstructs the campaign an experiment needs from the
// lake, once.
func (o *httpOracle) campaigns(kind string) error {
	var err error
	switch {
	case kind == "trace" && o.tc == nil:
		o.tc, err = o.lake.TraceCampaign()
	case kind == "chaos" && o.cc == nil:
		o.cc, err = o.lake.ChaosCampaign()
	}
	return err
}

// indentJSON encodes v the way the API does: two-space indent and a
// trailing newline.
func indentJSON(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// verifyHTTP checks every successful sample's body digest against the
// oracle's document for its path and marks mismatches not ok.
func verifyHTTP(reqs []httpReq, samples []sample, want func(path string) ([]byte, error), digest func([]byte) uint64) {
	memo := map[string]uint64{}
	for i := range samples {
		s := &samples[i]
		if !s.ok {
			continue
		}
		path := reqs[i].path
		h, seen := memo[path]
		if !seen {
			b, err := want(path)
			if err != nil {
				// No document to compare with: the sample cannot be
				// shown correct.
				s.ok = false
				continue
			}
			h = digest(b)
			memo[path] = h
		}
		if s.hash != h {
			s.ok = false
		}
	}
}
