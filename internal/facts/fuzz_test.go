package facts

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"vzlens/internal/atlas"
	"vzlens/internal/months"
)

// FuzzFactFrame pins the decoder's safety contract: arbitrary bytes
// either decode into a structurally valid partition or fail with
// ErrCorrupt — never a panic, and never an allocation sized by a
// header rather than the input (every length is bounded against the
// payload before any make; TestDecodeCorrupt measures the bound).
// Successful decodes must re-encode into a payload that decodes back
// equal, so the fuzzer also guards round-trip fidelity (RTTs bit for
// bit, so a NaN read from arbitrary bytes must survive too). The seeds
// include a valid version-2 chaos frame and two that break its table
// rules: a table entry first referenced out of order, and a probe
// entry repeated.
func FuzzFactFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("VZFC"))
	f.Add(EncodeTracePartition(&atlas.TracePartition{
		Month:   months.MustParse("2020-01"),
		RTT:     []float64{1.25, 2.5},
		ProbeID: []int32{3, 4},
		CC:      []uint16{0, 1},
		Hops:    []uint8{2, 3},
		Dict:    []string{"VE", "BR"},
	}))
	f.Add(EncodeChaosPartition(&atlas.ChaosPartition{
		Month:   months.MustParse("2021-06"),
		Probe:   []uint16{0},
		Answer:  []uint16{0},
		Probes:  []atlas.ChaosProbe{{ID: 9, CC: 1}},
		Answers: []atlas.ChaosAnswer{{Letter: 'K', TXT: 0, SiteCC: atlas.DictNone}},
		Dict:    []string{"ns1.ve-ccs.k.ripe.net", "VE"},
	}))
	f.Add(chaosPayload(func(*atlas.ChaosPartition) {}))
	f.Add(chaosPayload(func(p *atlas.ChaosPartition) { p.Probe[0], p.Probe[1] = 1, 0 }))
	f.Add(chaosPayload(func(p *atlas.ChaosPartition) { p.Probes[1] = p.Probes[0] }))
	f.Add(chaosTableOverflow("probes"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		tp, cp, err := DecodePartition(payload)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			if tp != nil || cp != nil {
				t.Fatal("decode returned a partition alongside an error")
			}
			return
		}
		switch {
		case tp != nil:
			again, _, err := DecodePartition(EncodeTracePartition(tp))
			if err != nil {
				t.Fatalf("re-encode of valid trace partition fails: %v", err)
			}
			if !sameTrace(again, tp) {
				t.Fatal("trace partition round trip diverges")
			}
		case cp != nil:
			_, again, err := DecodePartition(EncodeChaosPartition(cp))
			if err != nil {
				t.Fatalf("re-encode of valid chaos partition fails: %v", err)
			}
			if !reflect.DeepEqual(again, cp) {
				t.Fatal("chaos partition round trip diverges")
			}
		default:
			t.Fatal("decode returned neither partition nor error")
		}
	})
}

// sameTrace is reflect.DeepEqual with the RTT column compared by bits:
// DeepEqual treats every NaN as unequal to itself.
func sameTrace(a, b *atlas.TracePartition) bool {
	if len(a.RTT) != len(b.RTT) {
		return false
	}
	for i := range a.RTT {
		if math.Float64bits(a.RTT[i]) != math.Float64bits(b.RTT[i]) {
			return false
		}
	}
	x, y := *a, *b
	x.RTT, y.RTT = nil, nil
	return (a.RTT == nil) == (b.RTT == nil) && reflect.DeepEqual(x, y)
}
