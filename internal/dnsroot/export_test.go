package dnsroot

import "vzlens/internal/months"

// InCountry returns the instances in country cc active at month m.
func (d *Deployment) InCountry(cc string, m months.Month) []Instance {
	var out []Instance
	for _, i := range d.ActiveAt(m) {
		if i.City.Country == cc {
			out = append(out, i)
		}
	}
	return out
}
