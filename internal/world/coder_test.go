package world_test

import (
	"bytes"
	"reflect"
	"testing"

	"vzlens/internal/atlas"
	"vzlens/internal/facts"
	"vzlens/internal/world"
)

// TestKernelChaosPartitionsMatchCoder is the CHAOS kernel's coding
// differential test: for every month of the Step-3 campaign, the
// partition the kernel codes per site equals the one the string-keyed
// coder builds from the same rows — same row codes, same tables, same
// dictionary order — and both encode to the same VZFC bytes.
func TestKernelChaosPartitionsMatchCoder(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the Step-3 CHAOS campaign")
	}
	w, err := world.Build(world.Config{Step: 3})
	if err != nil {
		t.Fatal(err)
	}
	ms := w.ChaosCampaign().Months()
	if len(ms) < 30 {
		t.Fatalf("Step-3 CHAOS campaign has %d months, want >= 30", len(ms))
	}
	for _, m := range ms {
		got := w.KernelChaosPartition(m)
		rows := w.KernelChaosRows(m)
		want := atlas.NewChaosPartition(m, rows)
		if got.Rows() != len(rows) || len(got.Probes) == 0 || len(got.Answers) == 0 {
			t.Fatalf("%s: kernel partition has %d rows, %d probes, %d answers over %d rows",
				m, got.Rows(), len(got.Probes), len(got.Answers), len(rows))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: kernel-coded partition differs from the coder's over the same rows", m)
			continue
		}
		if !bytes.Equal(facts.EncodeChaosPartition(got), facts.EncodeChaosPartition(want)) {
			t.Errorf("%s: kernel-coded partition encodes differently", m)
		}
	}
}
