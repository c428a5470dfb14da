package netsim

import "vzlens/internal/geo"

// Inverse returns the edit that undoes e. origCity must be the city A
// occupied before a relocation (the zero City when A had none).
func (e Edit) Inverse(origCity geo.City) Edit {
	switch e.Op {
	case EditAddLink:
		return Edit{Op: EditRemoveLink, A: e.A, B: e.B, Kind: e.Kind}
	case EditRemoveLink:
		return Edit{Op: EditAddLink, A: e.A, B: e.B, Kind: e.Kind}
	default:
		return Edit{Op: EditRelocate, A: e.A, City: origCity}
	}
}
