// Package peeringdb models the slice of the PeeringDB v2 schema the paper
// consumes from CAIDA's daily archive: facilities, networks, exchanges and
// the join tables recording which network is present at which facility or
// exchange. Snapshots serialize to the same JSON object layout the
// PeeringDB API dump uses ({"fac":{"data":[...]}, ...}), and an Archive
// holds the monthly snapshot sequence starting April 2018 (the start of
// the v2 data schema, as the paper notes).
package peeringdb

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"vzlens/internal/months"
)

// Facility is a colocation/peering facility (PeeringDB "fac" object).
type Facility struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	City    string `json:"city"`
	Country string `json:"country"`
}

// Network is a network operator (PeeringDB "net" object).
type Network struct {
	ID      int    `json:"id"`
	ASN     uint32 `json:"asn"`
	Name    string `json:"name"`
	Country string `json:"country"` // registration country
}

// IX is an Internet exchange point (PeeringDB "ix" object).
type IX struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	City    string `json:"city"`
	Country string `json:"country"`
}

// NetFac records a network's presence at a facility ("netfac").
type NetFac struct {
	NetID int `json:"net_id"`
	FacID int `json:"fac_id"`
}

// NetIXLan records a network's presence at an exchange ("netixlan").
type NetIXLan struct {
	NetID int `json:"net_id"`
	IXID  int `json:"ix_id"`
}

// Snapshot is one dated dump of the database.
type Snapshot struct {
	Facilities []Facility `json:"-"`
	Networks   []Network  `json:"-"`
	IXs        []IX       `json:"-"`
	NetFacs    []NetFac   `json:"-"`
	NetIXLans  []NetIXLan `json:"-"`
}

// dumpWrapper mirrors the PeeringDB API dump envelope.
type dumpWrapper struct {
	Fac      dumpList[Facility] `json:"fac"`
	Net      dumpList[Network]  `json:"net"`
	IX       dumpList[IX]       `json:"ix"`
	NetFac   dumpList[NetFac]   `json:"netfac"`
	NetIXLan dumpList[NetIXLan] `json:"netixlan"`
}

type dumpList[T any] struct {
	Data []T `json:"data"`
}

// MarshalJSON encodes the snapshot in API-dump envelope form.
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	return json.Marshal(dumpWrapper{
		Fac:      dumpList[Facility]{s.Facilities},
		Net:      dumpList[Network]{s.Networks},
		IX:       dumpList[IX]{s.IXs},
		NetFac:   dumpList[NetFac]{s.NetFacs},
		NetIXLan: dumpList[NetIXLan]{s.NetIXLans},
	})
}

// UnmarshalJSON decodes the API-dump envelope form.
func (s *Snapshot) UnmarshalJSON(b []byte) error {
	var w dumpWrapper
	if err := json.Unmarshal(b, &w); err != nil {
		return fmt.Errorf("peeringdb: decode: %w", err)
	}
	s.Facilities = w.Fac.Data
	s.Networks = w.Net.Data
	s.IXs = w.IX.Data
	s.NetFacs = w.NetFac.Data
	s.NetIXLans = w.NetIXLan.Data
	return nil
}

// Write encodes the snapshot as JSON to w.
func (s *Snapshot) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(s)
}

// Read decodes a snapshot from r.
func Read(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("peeringdb: read: %w", err)
	}
	return &s, nil
}

// FacilityCount returns the number of facilities per country.
func (s *Snapshot) FacilityCount() map[string]int {
	out := map[string]int{}
	for _, f := range s.Facilities {
		out[f.Country]++
	}
	return out
}

// NetworksAt returns the networks present at facility facID, sorted by ASN.
func (s *Snapshot) NetworksAt(facID int) []Network {
	present := map[int]bool{}
	for _, nf := range s.NetFacs {
		if nf.FacID == facID {
			present[nf.NetID] = true
		}
	}
	var out []Network
	for _, n := range s.Networks {
		if present[n.ID] {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// FacilityByName returns the facility whose name matches exactly.
func (s *Snapshot) FacilityByName(name string) (Facility, bool) {
	for _, f := range s.Facilities {
		if f.Name == name {
			return f, true
		}
	}
	return Facility{}, false
}

// Archive holds monthly snapshots.
type Archive struct {
	byMonth map[months.Month]*Snapshot
}

// NewArchive returns an empty Archive.
func NewArchive() *Archive { return &Archive{byMonth: map[months.Month]*Snapshot{}} }

// Put stores the snapshot for month m.
func (a *Archive) Put(m months.Month, s *Snapshot) {
	if a.byMonth == nil {
		a.byMonth = map[months.Month]*Snapshot{}
	}
	a.byMonth[m] = s
}

// Get returns the snapshot for m, or nil.
func (a *Archive) Get(m months.Month) *Snapshot { return a.byMonth[m] }

// Months returns the archived months, sorted.
func (a *Archive) Months() []months.Month {
	out := make([]months.Month, 0, len(a.byMonth))
	for m := range a.byMonth {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MembershipSeries returns per month the number of networks present at the
// named facility (Figure 15).
func (a *Archive) MembershipSeries(facName string) map[months.Month]int {
	out := map[months.Month]int{}
	for m, s := range a.byMonth {
		f, ok := s.FacilityByName(facName)
		if !ok {
			continue
		}
		out[m] = len(s.NetworksAt(f.ID))
	}
	return out
}
