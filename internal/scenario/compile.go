package scenario

import (
	"fmt"

	"vzlens/internal/bgp"
	"vzlens/internal/dnsroot"
	"vzlens/internal/geo"
	"vzlens/internal/months"
	"vzlens/internal/world"
)

// Compile resolves a validated spec against a world into an executable
// plan: IATA codes become cities, windows become month values, and
// every referenced ASN is checked against the relationship graph of
// the campaign's final month (the month where the modeled AS set is
// largest; CANTV customers activated later, such as AS270120 under the
// default 2024-01 end, are unknown). A dangling ASN or unknown city is
// a compile error, not a silent no-op.
func (s *Spec) Compile(w *world.World) (*world.ScenarioPlan, error) {
	wins, err := s.validate()
	if err != nil {
		return nil, err
	}
	end := w.Config.TraceEnd
	if w.Config.ChaosEnd.After(end) {
		end = w.Config.ChaosEnd
	}
	// A plan must touch the campaign range [TraceStart, end]: a
	// scenario whose every edit misses the modeled months would serve a
	// diff of all zeros and mislead more than it informs. A shift moves
	// the whole timeline, so it always touches it.
	campaign := months.Window{From: w.Config.TraceStart, To: end.Add(1)}
	touches := false
	g := w.ASRelArchive(end, end).Get(end)
	checkAS := func(op string, asn uint32) error {
		if p, c, peer := g.Degree(bgp.ASN(asn)); p+c+peer == 0 {
			return fmt.Errorf("scenario %q: %s references AS%d, unknown to the world", s.ID, op, asn)
		}
		return nil
	}
	city := func(op, iata string) (geo.City, error) {
		c, ok := geo.LookupIATA(iata)
		if !ok {
			return geo.City{}, fmt.Errorf("scenario %q: %s references unknown city %q", s.ID, op, iata)
		}
		return c, nil
	}

	plan := &world.ScenarioPlan{Key: s.Key()}
	for i, op := range s.Ops {
		win := wins[i]
		touches = touches || op.Op == OpShiftEvent || win.Overlaps(campaign)
		switch op.Op {
		case OpAddLink, OpRemoveLink:
			kind, _ := relKind(op.Kind)
			if err := checkAS(op.Op, op.A); err != nil {
				return nil, err
			}
			if err := checkAS(op.Op, op.B); err != nil {
				return nil, err
			}
			l := world.ScenarioLink{
				A: bgp.ASN(op.A), B: bgp.ASN(op.B), Kind: kind, Window: win,
			}
			if op.Op == OpAddLink {
				plan.AddLinks = append(plan.AddLinks, l)
			} else {
				plan.RemoveLinks = append(plan.RemoveLinks, l)
			}
		case OpDepeer:
			if err := checkAS(op.Op, op.ASN); err != nil {
				return nil, err
			}
			plan.Depeers = append(plan.Depeers, world.ScenarioDepeer{
				ASN: bgp.ASN(op.ASN), Window: win,
			})
		case OpMoveAS:
			if err := checkAS(op.Op, op.ASN); err != nil {
				return nil, err
			}
			c, err := city(op.Op, op.IATA)
			if err != nil {
				return nil, err
			}
			plan.Moves = append(plan.Moves, world.ScenarioMove{
				ASN: bgp.ASN(op.ASN), City: c, Window: win,
			})
		case OpAddGPDNS, OpRemoveGPDNS:
			c, err := city(op.Op, op.IATA)
			if err != nil {
				return nil, err
			}
			ch := world.ScenarioGPDNSSite{
				Remove: op.Op == OpRemoveGPDNS, Host: bgp.ASN(op.Host),
				City: c, Window: win,
			}
			if !ch.Remove {
				if err := checkAS(op.Op, op.Host); err != nil {
					return nil, err
				}
			}
			plan.GPDNS = append(plan.GPDNS, ch)
		case OpAddRoot, OpRemoveRoot:
			c, err := city(op.Op, op.IATA)
			if err != nil {
				return nil, err
			}
			ch := world.ScenarioRootReplica{
				Remove: op.Op == OpRemoveRoot, Letter: op.letter(),
				Host: bgp.ASN(op.Host), City: c, Window: win,
			}
			if !ch.Remove {
				if err := checkAS(op.Op, op.Host); err != nil {
					return nil, err
				}
			}
			plan.Roots = append(plan.Roots, ch)
		case OpShiftEvent:
			plan.EventShiftMonths = op.Months
		}
	}
	if !touches {
		return nil, fmt.Errorf("scenario %q: no op's window overlaps the campaign range %s..%s",
			s.ID, w.Config.TraceStart, end)
	}
	return plan, nil
}

// letter converts the validated one-byte letter field.
func (op Op) letter() (l dnsroot.Letter) {
	if validLetter(op.Letter) {
		l = dnsroot.Letter(op.Letter[0])
	}
	return l
}
