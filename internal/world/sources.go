package world

import (
	"context"

	"vzlens/internal/atlas"
	"vzlens/internal/bgp"
	"vzlens/internal/mlab"
	"vzlens/internal/peeringdb"
	"vzlens/internal/registry"
)

// Axis names one of the five independent archival inputs the paper's
// pipeline joins.
type Axis string

const (
	AxisPeeringDB  Axis = "peeringdb"  // CAIDA's daily PeeringDB dumps
	AxisAtlas      Axis = "atlas"      // RIPE Atlas result archives
	AxisMLab       Axis = "mlab"       // M-Lab NDT unified views
	AxisRouteViews Axis = "routeviews" // RouteViews MRT RIBs / pfx2as
	AxisRegistry   Axis = "registry"   // LACNIC delegation files
)

// AxisStatus records how one ingestion axis fared during
// BuildWithSources; the /readyz endpoint reports it verbatim.
type AxisStatus struct {
	Axis Axis `json:"axis"`
	// External reports whether a loader was configured for the axis.
	External bool `json:"external"`
	// Degraded is set when the loader failed and the synthetic
	// substitute is serving in its place.
	Degraded bool   `json:"degraded"`
	Error    string `json:"error,omitempty"`
}

// SourceSet wires external archival loaders into world construction.
// Every field is optional: a nil loader means the axis is synthetic by
// design and never counts as degraded. Each configured loader runs once
// under the build's context; a loader that fails leaves its axis on the
// synthetic substitute and marks it Degraded instead of failing the
// build — ten years of archives should not be hostage to one bad dump.
type SourceSet struct {
	PeeringDB  func(ctx context.Context) (*peeringdb.Archive, error)
	Atlas      func(ctx context.Context) (*atlas.ChaosCampaign, *atlas.TraceCampaign, error)
	MLab       func(ctx context.Context) (*mlab.Archive, error)
	RouteViews func(ctx context.Context) (*bgp.RIBArchive, error)
	Registry   func(ctx context.Context) (*registry.Table, error)
}

// BuildWithSources assembles a World, ingesting each configured external
// source and falling back to the synthetic substitute — with a Degraded
// axis status — when a source fails. Only an invalid configuration or
// a cancelled context fails the build outright.
func BuildWithSources(ctx context.Context, cfg Config, src SourceSet) (*World, error) {
	w, err := Build(cfg)
	if err != nil {
		return nil, err
	}

	load := func(axis Axis, configured bool, fn func(ctx context.Context) error) error {
		st := AxisStatus{Axis: axis, External: configured}
		if configured {
			if err := fn(ctx); err != nil {
				st.Degraded = true
				st.Error = err.Error()
			}
		}
		w.axes = append(w.axes, st)
		return ctx.Err()
	}

	steps := []struct {
		axis Axis
		on   bool
		fn   func(ctx context.Context) error
	}{
		{AxisPeeringDB, src.PeeringDB != nil, func(ctx context.Context) error {
			a, err := src.PeeringDB(ctx)
			if err == nil {
				w.ext.pdb = a
			}
			return err
		}},
		{AxisAtlas, src.Atlas != nil, func(ctx context.Context) error {
			chaos, trace, err := src.Atlas(ctx)
			if err == nil {
				w.ext.chaos, w.ext.trace = chaos, trace
			}
			return err
		}},
		{AxisMLab, src.MLab != nil, func(ctx context.Context) error {
			a, err := src.MLab(ctx)
			if err == nil {
				w.ext.mlab = a
			}
			return err
		}},
		{AxisRouteViews, src.RouteViews != nil, func(ctx context.Context) error {
			a, err := src.RouteViews(ctx)
			if err == nil {
				w.ext.ribs = a
			}
			return err
		}},
		{AxisRegistry, src.Registry != nil, func(ctx context.Context) error {
			t, err := src.Registry(ctx)
			if err == nil {
				w.ext.reg = t
			}
			return err
		}},
	}
	for _, s := range steps {
		if err := load(s.axis, s.on, s.fn); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// AxisStatuses returns the per-axis ingestion report (nil for a world
// built without sources).
func (w *World) AxisStatuses() []AxisStatus {
	out := make([]AxisStatus, len(w.axes))
	copy(out, w.axes)
	return out
}

// Degraded reports whether any ingestion axis fell back to its
// synthetic substitute.
func (w *World) Degraded() bool {
	for _, st := range w.axes {
		if st.Degraded {
			return true
		}
	}
	return false
}
