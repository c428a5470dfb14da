package mlab

import (
	"bytes"
	"io"
	"testing"
	"time"

	"vzlens/internal/faultio"
	"vzlens/internal/months"
)

// FuzzParseJSON feeds arbitrary bytes through the NDJSON parser: it
// must return an archive or an error without panicking, and an accepted
// archive must aggregate cleanly. The corpus is seeded with valid
// output from WriteJSON plus faultio-damaged variants (truncated,
// bit-flipped) matching the fault harness's failure shapes.
func FuzzParseJSON(f *testing.F) {
	m := months.New(2023, time.July)
	var valid bytes.Buffer
	if err := WriteJSON(&valid, []Test{
		{Month: m, Country: "VE", DownloadMbps: 2.9},
		{Month: m, Country: "BR", DownloadMbps: 48.1},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	for _, n := range []int64{0, 1, int64(valid.Len() / 2), int64(valid.Len() - 1)} {
		cut, _ := io.ReadAll(faultio.Truncate(bytes.NewReader(valid.Bytes()), n))
		f.Add(cut)
	}
	for _, off := range []int64{0, 5, int64(valid.Len() / 3), int64(valid.Len() - 2)} {
		flipped, _ := io.ReadAll(faultio.Corrupt(bytes.NewReader(valid.Bytes()), 0x02, off))
		f.Add(flipped)
	}
	f.Add([]byte("\n\n"))
	f.Add([]byte(`{"month":"not-a-month","country":"VE"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		ar, err := ParseJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		// An accepted archive must aggregate without panicking.
		ar.TestCount()
		ar.Median("VE", m)
		ar.MedianPanel()
	})
}
