package atlas

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"time"

	"vzlens/internal/dnsroot"
	"vzlens/internal/months"
)

// This file implements the RIPE Atlas result interchange format (the
// JSON-lines the API and the daily dumps deliver), for the two
// measurement kinds the paper consumes: DNS TXT results from the
// built-in CHAOS measurements and traceroute results from campaign
// 1591. Encoding loses nothing the analyses need; parsing accepts real
// Atlas field layouts.

// Measurement IDs used in the wire format. 1591 is the real GPDNS
// traceroute campaign; built-in root measurements use per-letter IDs.
const (
	MsmGPDNSTraceroute = 1591
	msmChaosBase       = 10000 // built-in CHAOS: base + letter index
)

// wireDNS mirrors an Atlas DNS result line.
type wireDNS struct {
	Fw        int        `json:"fw"`
	Type      string     `json:"type"`
	PrbID     int        `json:"prb_id"`
	MsmID     int        `json:"msm_id"`
	Timestamp int64      `json:"timestamp"`
	CC        string     `json:"probe_cc,omitempty"` // vzlens extension
	Result    *wireDNSRR `json:"result,omitempty"`
}

type wireDNSRR struct {
	Answers []wireDNSAnswer `json:"answers"`
}

type wireDNSAnswer struct {
	Type  string   `json:"TYPE"`
	Name  string   `json:"NAME"`
	RData []string `json:"RDATA"`
}

// wireTrace mirrors an Atlas traceroute result line.
type wireTrace struct {
	Fw        int            `json:"fw"`
	Type      string         `json:"type"`
	PrbID     int            `json:"prb_id"`
	MsmID     int            `json:"msm_id"`
	Timestamp int64          `json:"timestamp"`
	DstAddr   string         `json:"dst_addr"`
	CC        string         `json:"probe_cc,omitempty"` // vzlens extension
	Result    []wireTraceHop `json:"result"`
}

type wireTraceHop struct {
	Hop    int             `json:"hop"`
	Result []wireTracePing `json:"result"`
}

type wireTracePing struct {
	From string  `json:"from,omitempty"`
	RTT  float64 `json:"rtt,omitempty"`
	X    string  `json:"x,omitempty"` // "*" for lost probes
}

// chaosMsmID maps a root letter to its built-in measurement ID.
func chaosMsmID(l dnsroot.Letter) int { return msmChaosBase + int(l-'A') }

// letterFromMsmID inverts chaosMsmID.
func letterFromMsmID(id int) (dnsroot.Letter, bool) {
	l := dnsroot.Letter('A' + id - msmChaosBase)
	return l, l.Valid()
}

// WriteChaosJSON encodes CHAOS results as Atlas DNS result lines.
func WriteChaosJSON(w io.Writer, results []ChaosResult) error {
	enc := json.NewEncoder(w)
	for _, r := range results {
		line := wireDNS{
			Fw:        5080,
			Type:      "dns",
			PrbID:     r.ProbeID,
			MsmID:     chaosMsmID(r.Letter),
			Timestamp: r.Month.Time().Unix(),
			CC:        r.ProbeCC,
			Result: &wireDNSRR{Answers: []wireDNSAnswer{{
				Type:  "TXT",
				Name:  "hostname.bind",
				RData: []string{r.TXT},
			}}},
		}
		if err := enc.Encode(line); err != nil {
			return fmt.Errorf("atlas: encode dns result: %w", err)
		}
	}
	return nil
}

// WriteTraceJSON encodes trace samples as Atlas traceroute result lines.
// Each sample becomes a single-hop-list result whose final hop carries
// the RTT (intermediate hops are not materialized by the campaign
// aggregation, which only needs the end-to-end minimum).
func WriteTraceJSON(w io.Writer, samples []TraceSample) error {
	enc := json.NewEncoder(w)
	for _, s := range samples {
		line := wireTrace{
			Fw:        5080,
			Type:      "traceroute",
			PrbID:     s.ProbeID,
			MsmID:     MsmGPDNSTraceroute,
			Timestamp: s.Month.Time().Unix(),
			DstAddr:   "8.8.8.8",
			CC:        s.ProbeCC,
			Result: []wireTraceHop{{
				Hop:    255,
				Result: []wireTracePing{{From: "8.8.8.8", RTT: s.RTTms}},
			}},
		}
		if err := enc.Encode(line); err != nil {
			return fmt.Errorf("atlas: encode traceroute result: %w", err)
		}
	}
	return nil
}

// ParseResultsJSON reads a mixed JSON-lines result stream, splitting it
// into the CHAOS and traceroute campaigns. Unknown result types are
// skipped; malformed lines are errors.
func ParseResultsJSON(r io.Reader) (*ChaosCampaign, *TraceCampaign, error) {
	chaos := NewChaosCampaign()
	trace := NewTraceCampaign()
	m := met.Load()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if m != nil {
			m.bytes.Add(uint64(len(raw)) + 1) // +1 for the newline
		}
		if len(raw) == 0 {
			continue
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			if m != nil {
				m.malforms.Inc()
			}
			return nil, nil, fmt.Errorf("atlas: line %d: %w", lineNo, err)
		}
		switch probe.Type {
		case "dns":
			var line wireDNS
			if err := json.Unmarshal(raw, &line); err != nil {
				if m != nil {
					m.malforms.Inc()
				}
				return nil, nil, fmt.Errorf("atlas: line %d: %w", lineNo, err)
			}
			if m != nil {
				m.dns.Inc()
			}
			letter, ok := letterFromMsmID(line.MsmID)
			if !ok || line.Result == nil {
				continue
			}
			for _, ans := range line.Result.Answers {
				if ans.Type != "TXT" || len(ans.RData) == 0 {
					continue
				}
				chaos.Add(ChaosResult{
					Month:   months.FromTime(timeFromUnix(line.Timestamp)),
					ProbeID: line.PrbID,
					ProbeCC: line.CC,
					Letter:  letter,
					TXT:     ans.RData[0],
				})
			}
		case "traceroute":
			var line wireTrace
			if err := json.Unmarshal(raw, &line); err != nil {
				if m != nil {
					m.malforms.Inc()
				}
				return nil, nil, fmt.Errorf("atlas: line %d: %w", lineNo, err)
			}
			if m != nil {
				m.trace.Inc()
			}
			// The sample RTT is the last responding hop's best RTT.
			best := 0.0
			found := false
			for _, hop := range line.Result {
				for _, ping := range hop.Result {
					if ping.X == "*" || ping.RTT <= 0 {
						continue
					}
					if !found || ping.RTT < best {
						best = ping.RTT
						found = true
					}
				}
			}
			if !found {
				continue
			}
			trace.Add(TraceSample{
				Month:   months.FromTime(timeFromUnix(line.Timestamp)),
				ProbeID: line.PrbID,
				ProbeCC: line.CC,
				RTTms:   best,
			})
		default:
			// Other measurement kinds (ping, sslcert, ...) are ignored.
			if m != nil {
				m.skipped.Inc()
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("atlas: read: %w", err)
	}
	// The month builders' code maps are dead weight once parsing ends;
	// a later Add copies the partition into a fresh builder.
	chaos.open, trace.open = nil, nil
	return chaos, trace, nil
}

// timeFromUnix converts a result timestamp. Factored for clarity at the
// call sites above.
func timeFromUnix(ts int64) time.Time { return time.Unix(ts, 0).UTC() }
