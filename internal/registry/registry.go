// Package registry implements the RIR delegation-file format LACNIC
// publishes (the pipe-separated "NRO extended allocation and assignment"
// format) together with the address-space accounting the paper's Section 4
// performs on it: how much IPv4 space each country and each holder has
// been delegated at any month.
//
// Format reference (one record per line):
//
//	lacnic|VE|ipv4|200.44.0.0|65536|20001207|allocated|ORG-CANV
//
// Fields: registry, country code, type, start address, value (number of
// addresses for ipv4), date (YYYYMMDD), status, opaque holder ID. Header
// and summary lines (version/summary records) are accepted and skipped.
package registry

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"time"

	"vzlens/internal/months"
)

// Record is one delegation line.
type Record struct {
	Registry string // "lacnic"
	Country  string // ISO code
	Type     string // "ipv4", "ipv6", "asn"
	Start    string // start address or first ASN
	Value    int64  // address count (ipv4), prefix length (ipv6), ASN count
	Date     months.Month
	Status   string // "allocated" or "assigned"
	Holder   string // opaque org identifier, e.g. "ORG-CANV"
}

// String renders the record in delegation-file syntax.
func (r Record) String() string {
	return fmt.Sprintf("%s|%s|%s|%s|%d|%s|%s|%s",
		r.Registry, r.Country, strings.ToLower(r.Type), r.Start, r.Value,
		dateString(r.Date), r.Status, r.Holder)
}

func dateString(m months.Month) string {
	if m.IsZero() {
		return "00000000"
	}
	return fmt.Sprintf("%04d%02d01", m.Year(), int(m.Month()))
}

// ParseRecord parses one delegation line. It returns (zero, false, nil)
// for header, version and summary lines, which are valid but carry no
// delegation.
func ParseRecord(line string) (Record, bool, error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return Record{}, false, nil
	}
	fields := strings.Split(line, "|")
	// Version header: 2|lacnic|20240101|...; summary: lacnic|*|ipv4|*|1234|summary
	if len(fields) > 0 && fields[0] != "" && fields[0][0] >= '0' && fields[0][0] <= '9' {
		return Record{}, false, nil
	}
	if len(fields) >= 6 && fields[len(fields)-1] == "summary" {
		return Record{}, false, nil
	}
	if len(fields) < 7 {
		return Record{}, false, fmt.Errorf("registry: short record %q", line)
	}
	value, err := strconv.ParseInt(fields[4], 10, 64)
	if err != nil {
		return Record{}, false, fmt.Errorf("registry: bad value in %q: %w", line, err)
	}
	date, err := parseDate(fields[5])
	if err != nil {
		return Record{}, false, fmt.Errorf("registry: bad date in %q: %w", line, err)
	}
	rec := Record{
		Registry: fields[0],
		Country:  strings.ToUpper(fields[1]),
		Type:     strings.ToLower(fields[2]),
		Start:    fields[3],
		Value:    value,
		Date:     date,
		Status:   fields[6],
	}
	if len(fields) >= 8 {
		rec.Holder = fields[7]
	}
	if rec.Type == "ipv4" {
		if _, err := netip.ParseAddr(rec.Start); err != nil {
			return Record{}, false, fmt.Errorf("registry: bad ipv4 start in %q: %w", line, err)
		}
	}
	return rec, true, nil
}

func parseDate(s string) (months.Month, error) {
	if len(s) != 8 {
		return 0, fmt.Errorf("want YYYYMMDD, got %q", s)
	}
	y, err := strconv.Atoi(s[:4])
	if err != nil {
		return 0, err
	}
	mo, err := strconv.Atoi(s[4:6])
	if err != nil {
		return 0, err
	}
	if mo < 1 || mo > 12 {
		return 0, fmt.Errorf("month out of range in %q", s)
	}
	return months.New(y, time.Month(mo)), nil
}

// Table is an in-memory delegation archive.
type Table struct {
	records []Record
}

// NewTable returns an empty Table.
func NewTable() *Table { return &Table{} }

// Add appends a record.
func (t *Table) Add(r Record) { t.records = append(t.records, r) }

// Len returns the number of records.
func (t *Table) Len() int { return len(t.records) }

// Records returns all records sorted by delegation date then start.
func (t *Table) Records() []Record {
	out := make([]Record, len(t.records))
	copy(out, t.records)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Date != out[j].Date {
			return out[i].Date < out[j].Date
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// Parse reads a delegation file.
func Parse(r io.Reader) (*Table, error) {
	t := NewTable()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		rec, ok, err := ParseRecord(sc.Text())
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if ok {
			t.Add(rec)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("registry: read: %w", err)
	}
	return t, nil
}

// WriteTo writes the table in delegation-file syntax, preceded by a
// version header, implementing io.WriterTo.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var n int64
	write := func(s string) error {
		k, err := io.WriteString(w, s)
		n += int64(k)
		return err
	}
	if err := write("2|lacnic|vzlens|" + strconv.Itoa(len(t.records)) + "\n"); err != nil {
		return n, err
	}
	for _, r := range t.Records() {
		if err := write(r.String() + "\n"); err != nil {
			return n, err
		}
	}
	return n, nil
}
