package netsim

import (
	"sync/atomic"

	"vzlens/internal/obs"
)

// metrics holds the package's observability counters. All fields are
// nil-safe obs counters, so the un-instrumented hot path pays one
// atomic pointer load and a nil check per BFS — nothing per state.
type metrics struct {
	denseBuilds   *obs.Counter
	overlayBuilds *obs.Counter
	treeBFS       *obs.Counter
	treeMemoHit   *obs.Counter
	pathBFS       *obs.Counter
	scratchGrow   *obs.Counter
	catchments    *obs.Counter
}

// met is swapped atomically so InstrumentMetrics is safe to call while
// simulations are running (it still belongs at startup).
var met atomic.Pointer[metrics]

// InstrumentMetrics registers the valley-free engine's counters on reg:
// dense topology interns, single-source tree BFS runs vs memoized tree
// hits, best-path BFS runs, scratch-buffer growths (a proxy for the
// allocation behavior the dense engine exists to avoid), and catchment
// selections.
func InstrumentMetrics(reg *obs.Registry) {
	m := &metrics{
		denseBuilds: reg.Counter("vz_netsim_dense_builds_total",
			"Topologies interned into the dense CSR form."),
		overlayBuilds: reg.Counter("vz_netsim_overlay_builds_total",
			"Dense overlay views derived by patching a base build."),
		treeBFS: reg.Counter("vz_netsim_tree_bfs_total",
			"Single-source valley-free BFS traversals executed."),
		treeMemoHit: reg.Counter("vz_netsim_tree_memo_hits_total",
			"Catchment lookups served from a memoized source tree."),
		pathBFS: reg.Counter("vz_netsim_path_bfs_total",
			"Best-path BFS traversals (parent-pointer variant) executed."),
		scratchGrow: reg.Counter("vz_netsim_scratch_grows_total",
			"Pooled scratch buffers (re)allocated for a larger topology."),
		catchments: reg.Counter("vz_netsim_catchments_total",
			"Anycast catchment selections run (CatchmentInfo calls)."),
	}
	met.Store(m)
}
