package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the nearest-rank p-th percentile of xs. It refuses
// a percentile with fewer than ten samples beyond it: p99 needs 1000
// samples, p90 needs 100, the median 20.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 1-based nearest rank
	if n-rank < 10 {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need 10", p, n, n-rank)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle of a few repeated measurements (set-up times,
// cold queries); unlike percentile it makes no sample-count claim.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spreads -compare prints match the ones the runs are judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// prom is one scrape of a Prometheus text exposition: sample value by
// series key, the metric name plus its label set exactly as exposed
// (`vz_http_requests_total{class="query"}`).
type prom map[string]float64

// parseProm reads counters, gauges, labelled children and histogram
// series (_bucket/_sum/_count are ordinary series here). Comment lines
// and a trailing timestamp are ignored.
func parseProm(r io.Reader) (prom, error) {
	out := prom{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		var key, rest string
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("prometheus text: unbalanced labels in %q", line)
			}
			key, rest = line[:j+1], line[j+1:]
		} else if sp := strings.IndexAny(line, " \t"); sp > 0 {
			key, rest = line[:sp], line[sp:]
		}
		fields := strings.Fields(rest)
		if key == "" || len(fields) == 0 {
			return nil, fmt.Errorf("prometheus text: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus text: %q: %w", line, err)
		}
		out[key] = v
	}
	return out, sc.Err()
}

// series builds a series key: series("a_total", "class", "query") is
// `a_total{class="query"}`.
func series(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// delta is the change of every series between two scrapes.
func delta(before, after prom) prom {
	out := prom{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// histMean is a histogram's mean observation over a delta, 0 when it
// observed nothing.
func (p prom) histMean(name string, labels ...string) float64 {
	n := p[series(name+"_count", labels...)]
	if n == 0 {
		return 0
	}
	return p[series(name+"_sum", labels...)] / n
}

// span is one finished span from the server's -trace output.
type span struct {
	Name   string    `json:"name"`
	ID     string    `json:"span"`
	Parent string    `json:"parent"`
	End    time.Time `json:"time"`
	DurUS  int64     `json:"dur_us"`
}

func (s span) start() time.Time { return s.End.Add(-time.Duration(s.DurUS) * time.Microsecond) }

// readSpans parses the JSON lines obs.Tracer writes; lines that are not
// spans are skipped.
func readSpans(r io.Reader) ([]span, error) {
	var out []span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("span line: %w", err)
		}
		if s.ID != "" {
			out = append(out, s)
		}
	}
	return out, sc.Err()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children may overlap (a
// campaign fans months out over workers), so the covered part is the
// length of the union of their intervals, clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	type iv struct{ lo, hi time.Time }
	kids := map[string][]iv{}
	for _, s := range spans {
		if s.Parent != "" {
			kids[s.Parent] = append(kids[s.Parent], iv{s.start(), s.End})
		}
	}
	out := make(map[string]time.Duration, len(spans))
	for _, s := range spans {
		lo, hi := s.start(), s.End
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
		var covered time.Duration
		cur := lo
		for _, c := range ivs {
			a, b := c.lo, c.hi
			if a.Before(cur) {
				a = cur
			}
			if b.After(hi) {
				b = hi
			}
			if b.After(a) {
				covered += b.Sub(a)
				cur = b
			}
		}
		out[s.ID] = hi.Sub(lo) - covered
	}
	return out
}
