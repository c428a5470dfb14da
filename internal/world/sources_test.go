package world

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"vzlens/internal/mlab"
	"vzlens/internal/registry"
)

func TestBuildValidatesConfig(t *testing.T) {
	cases := []Config{
		{TraceStart: mm(2020, time.January), TraceEnd: mm(2014, time.January)},
		{ChaosStart: mm(2020, time.January), ChaosEnd: mm(2014, time.January)},
		{Step: -1},
		{SamplesPerProbe: -2},
		{FleetScale: -0.5},
	}
	for i, cfg := range cases {
		if _, err := Build(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := Build(Config{}); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestBuildWithSourcesFallsBackAndReportsDegraded(t *testing.T) {
	boom := errors.New("mirror down")
	attempts := 0
	w, err := BuildWithSources(context.Background(), Config{Step: 6}, SourceSet{
		Registry: func(context.Context) (*registry.Table, error) {
			attempts++
			return nil, boom
		},
	})
	if err != nil {
		t.Fatalf("BuildWithSources = %v (persistent source failure must not fail the build)", err)
	}
	if attempts != 1 {
		t.Errorf("loader attempts = %d, want 1", attempts)
	}
	if !w.Degraded() {
		t.Fatal("Degraded = false after persistent registry failure")
	}
	var reg AxisStatus
	for _, st := range w.AxisStatuses() {
		if st.Axis == AxisRegistry {
			reg = st
		} else if st.Degraded {
			t.Errorf("axis %s degraded without a loader", st.Axis)
		}
	}
	if !reg.External || !reg.Degraded || !strings.Contains(reg.Error, "mirror down") {
		t.Errorf("registry status = %+v", reg)
	}
	// The synthetic substitute still serves.
	if w.Registry().Len() == 0 {
		t.Error("synthetic registry fallback is empty")
	}
}

func TestBuildWithSourcesServesExternalMLab(t *testing.T) {
	ar := mlab.NewArchive()
	m := mm(2023, time.July)
	ar.Add([]mlab.Test{
		{Month: m, Country: "VE", DownloadMbps: 1.0},
		{Month: m, Country: "VE", DownloadMbps: 9.0},
		{Month: m, Country: "VE", DownloadMbps: 5.0},
	})
	w, err := BuildWithSources(context.Background(), Config{Step: 6}, SourceSet{
		MLab: func(context.Context) (*mlab.Archive, error) { return ar, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.MedianSpeed("VE", m); got != 5.0 {
		t.Errorf("MedianSpeed from external archive = %v, want 5.0", got)
	}
	// Months the archive does not cover fall back to the model.
	if got := w.MedianSpeed("BR", m); got <= 0 {
		t.Errorf("fallback MedianSpeed = %v", got)
	}
}

func TestBuildWithSourcesHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := BuildWithSources(ctx, Config{Step: 6}, SourceSet{
		Registry: func(context.Context) (*registry.Table, error) { return registry.NewTable(), nil },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
