package peeringdb

import (
	"bytes"
	"io"
	"testing"

	"vzlens/internal/faultio"
)

// FuzzRead feeds arbitrary bytes through the snapshot reader: it must
// return a snapshot or an error without panicking, and an accepted
// snapshot must index cleanly. The corpus is seeded with a valid
// snapshot plus faultio-damaged variants (truncated, bit-flipped) so
// the fuzzer starts from the failure shapes the fault harness exercises.
func FuzzRead(f *testing.F) {
	snap := &Snapshot{
		Facilities: []Facility{{ID: 1, Name: "Cirion La Urbina", City: "Caracas", Country: "VE"}},
		IXs:        []IX{{ID: 1, Name: "IX-Caracas", Country: "VE"}},
		Networks:   []Network{{ID: 1, ASN: 8048, Name: "CANTV", Country: "VE"}},
		NetFacs:    []NetFac{{NetID: 1, FacID: 1}},
		NetIXLans:  []NetIXLan{{NetID: 1, IXID: 1}},
	}
	var valid bytes.Buffer
	if err := snap.Write(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	for _, n := range []int64{0, 1, int64(valid.Len() / 2), int64(valid.Len() - 1)} {
		cut, _ := io.ReadAll(faultio.Truncate(bytes.NewReader(valid.Bytes()), n))
		f.Add(cut)
	}
	for _, off := range []int64{0, 3, int64(valid.Len() / 3), int64(valid.Len() - 2)} {
		flipped, _ := io.ReadAll(faultio.Corrupt(bytes.NewReader(valid.Bytes()), 0x20, off))
		f.Add(flipped)
	}
	f.Add([]byte("{}"))
	f.Add([]byte(`{"fac":null,"net":[{"asn":-1}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// An accepted snapshot must support the read paths the world
		// exercises without panicking.
		s.FacilityCount()
		for _, n := range s.Networks {
			s.NetworksAt(n.ID)
		}
	})
}
