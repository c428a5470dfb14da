package webdeps

import (
	"testing"
)

func TestAssignProviderFollowsWeights(t *testing.T) {
	// Over a full palette cycle, each provider receives exactly its
	// weight in assignments.
	counts := map[string]int{}
	for i := 0; i < 100; i++ { // DNS palette weights sum to 100
		counts[assignProvider(DimDNS, i)]++
	}
	if counts["Cloudflare DNS"] != 35 || counts["Amazon Route 53"] != 25 || counts["NS1"] != 6 {
		t.Errorf("counts = %v", counts)
	}
}
