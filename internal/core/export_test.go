package core

import "vzlens/internal/anomaly"

// Find returns the signatures detected in the named dataset.
func (r SignaturesResult) Find(dataset string) []anomaly.Event {
	var out []anomaly.Event
	for _, s := range r.Signatures {
		if s.Dataset == dataset {
			out = append(out, s.Event)
		}
	}
	return out
}
