package facts

import "vzlens/internal/months"

// EraAt returns the signature of the era covering m for key, or false
// when m falls outside every recorded window.
func (d *Dimensions) EraAt(key string, m months.Month) (string, bool) {
	for i := range d.Eras {
		e := &d.Eras[i]
		if e.Key == key && !m.Before(e.ValidFrom) && !e.ValidTo.Before(m) {
			return e.Sig, true
		}
	}
	return "", false
}
