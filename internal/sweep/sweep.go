// Package sweep is the batch half of the what-if engine: one request
// names a templated family of counterfactuals — depeer each of CANTV's
// transit providers, cut each Venezuelan submarine cable, place a root
// replica in each candidate city — and the engine expands it into N
// content-addressed scenario specs, drives them through the scenario
// engine under a bounded worker pool, and serves a ranked impact
// leaderboard. Progress is journaled through the crash-safe result
// store: a restarted server resumes exactly where it died, never
// re-simulating a spec whose result already reached the journal, and a
// spec that fails (bad compile, panic, deadline) is quarantined into
// the leaderboard with its error instead of sinking the sweep.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"vzlens/internal/bgp"
	"vzlens/internal/dnsroot"
	"vzlens/internal/geo"
	"vzlens/internal/months"
	"vzlens/internal/scenario"
	"vzlens/internal/world"
)

// Families a sweep request can name.
const (
	// FamilyDepeerEach generates one depeer scenario per candidate
	// transit AS (default: every provider that ever served CANTV inside
	// the campaign range).
	FamilyDepeerEach = "depeer_each"
	// FamilyCableCutEach generates one cable-cut scenario per
	// Venezuelan-landing Telegeography cable with a modeled transit
	// association; cables without one are reported as skipped.
	FamilyCableCutEach = "cable_cut_each"
	// FamilyRootEach generates one root-replica scenario per
	// (letter, candidate city) pair.
	FamilyRootEach = "root_each"
	// FamilySpecs runs an explicit list of scenario specs as one sweep.
	FamilySpecs = "specs"
)

// MaxSpecs bounds a sweep so a hostile request cannot expand into an
// unbounded batch.
const MaxSpecs = 512

// Request is the JSON document POST /api/sweeps accepts: a sweep id, a
// family, and the family's parameters. Expansion is deterministic, so
// the same request against the same world always produces the same
// spec set in the same order.
type Request struct {
	ID     string `json:"id"`
	Family string `json:"family"`

	// From/Until window every generated op ("YYYY-MM", until exclusive).
	// Narrow windows are what make sweeps cheap: the engine re-simulates
	// only the months inside them.
	From  string `json:"from,omitempty"`
	Until string `json:"until,omitempty"`

	// ASNs overrides the depeer_each candidate set.
	ASNs []uint32 `json:"asns,omitempty"`

	// Letters/IATAs/Host parameterize root_each. Defaults: all thirteen
	// letters, the Venezuelan cities, CANTV as host.
	Letters []string `json:"letters,omitempty"`
	IATAs   []string `json:"iatas,omitempty"`
	Host    uint32   `json:"host,omitempty"`

	// Specs is the explicit list for FamilySpecs.
	Specs []*scenario.Spec `json:"specs,omitempty"`
}

// ParseRequest strictly decodes and validates a sweep request.
func ParseRequest(data []byte) (*Request, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var r Request
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("sweep: decode request: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("sweep: trailing data after request document")
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// Validate checks the request structurally; world-dependent checks
// (unknown ASNs, empty candidate sets) live in Expand.
func (r *Request) Validate() error {
	if err := validateID(r.ID); err != nil {
		return err
	}
	switch r.Family {
	case FamilyDepeerEach, FamilyCableCutEach, FamilyRootEach:
		if len(r.Specs) > 0 {
			return fmt.Errorf("sweep %q: specs only valid with family %q", r.ID, FamilySpecs)
		}
	case FamilySpecs:
		if len(r.Specs) == 0 {
			return fmt.Errorf("sweep %q: family %q requires specs", r.ID, FamilySpecs)
		}
	case "":
		return fmt.Errorf("sweep %q: missing family", r.ID)
	default:
		return fmt.Errorf("sweep %q: unknown family %q", r.ID, r.Family)
	}
	if _, err := months.ParseWindow(r.From, r.Until); err != nil {
		return fmt.Errorf("sweep %q: %w", r.ID, err)
	}
	for _, l := range r.Letters {
		if len(l) != 1 || l[0] < 'A' || l[0] > 'M' {
			return fmt.Errorf("sweep %q: bad root letter %q (want \"A\"..\"M\")", r.ID, l)
		}
	}
	return nil
}

// Key derives the sweep's content-addressed identity, the same way a
// scenario spec does: id plus a digest of the canonical request JSON.
// A re-POSTed id with different parameters gets a different key and
// can never serve the old leaderboard.
func (r *Request) Key() string {
	canon, _ := json.Marshal(r)
	sum := sha256.Sum256(canon)
	return r.ID + "-" + hex.EncodeToString(sum[:6])
}

// validateID enforces lowercase-kebab sweep ids (same alphabet as
// scenario ids, so generated spec ids stay valid).
func validateID(id string) error {
	if id == "" {
		return fmt.Errorf("sweep: empty id")
	}
	if len(id) > 48 {
		return fmt.Errorf("sweep: id longer than 48 bytes")
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		ok := c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-'
		if !ok || (c == '-' && (i == 0 || i == len(id)-1)) {
			return fmt.Errorf("sweep: id %q must be lowercase kebab-case ([a-z0-9-])", id)
		}
	}
	return nil
}

// cableTransits associates Venezuelan-landing cables with the CANTV
// transit providers the topology models as riding them (the Figure 9
// doc: Telecom Italia via SAC/Americas-II, Columbus and Orange via
// Americas-II, V.tal via GlobeNet). A cable cut is the loss of those
// provider links.
var cableTransits = map[string][]bgp.ASN{
	"Americas-II": {world.ASTelecomIT, world.ASColumbus, world.ASOrange},
	"GlobeNet":    {world.ASVtal},
}

// Expand turns the request into its ordered scenario specs. The second
// return lists candidates the family skipped (e.g. cables with no
// modeled transit) — skips are reported, never silent. Every generated
// spec passes scenario.Spec.Validate; compile-time failures against
// the world are per-spec outcomes, not expansion errors, so one bad
// candidate cannot sink the batch.
func (r *Request) Expand(w *world.World) (specs []*scenario.Spec, skipped []string, err error) {
	if err := r.Validate(); err != nil {
		return nil, nil, err
	}
	switch r.Family {
	case FamilyDepeerEach:
		for _, asn := range r.depeerCandidates(w) {
			specs = append(specs, &scenario.Spec{
				ID:   fmt.Sprintf("%s-depeer-as%d", r.ID, asn),
				Name: fmt.Sprintf("Depeer AS%d", asn),
				Ops:  []scenario.Op{{Op: scenario.OpDepeer, ASN: uint32(asn), From: r.From, Until: r.Until}},
			})
		}
	case FamilyCableCutEach:
		for _, c := range w.Cables.Cables() {
			if !c.LandsIn("VE") {
				continue
			}
			asns, ok := cableTransits[c.Name]
			if !ok {
				skipped = append(skipped, fmt.Sprintf("cable %q: no modeled transit association", c.Name))
				continue
			}
			var ops []scenario.Op
			for _, asn := range asns {
				ops = append(ops, scenario.Op{
					Op: scenario.OpRemoveLink, A: uint32(asn), B: uint32(world.ASCANTV),
					Kind: "p2c", From: r.From, Until: r.Until,
				})
			}
			specs = append(specs, &scenario.Spec{
				ID:   r.ID + "-cut-" + slug(c.Name),
				Name: fmt.Sprintf("Cut %s", c.Name),
				Ops:  ops,
			})
		}
	case FamilyRootEach:
		letters := r.Letters
		if len(letters) == 0 {
			for _, l := range dnsroot.Letters() {
				letters = append(letters, l.String())
			}
		}
		iatas := r.IATAs
		if len(iatas) == 0 {
			for _, c := range geo.CitiesIn("VE") {
				iatas = append(iatas, c.IATA)
			}
		}
		host := r.Host
		if host == 0 {
			host = uint32(world.ASCANTV)
		}
		for _, l := range letters {
			for _, iata := range iatas {
				specs = append(specs, &scenario.Spec{
					ID:   fmt.Sprintf("%s-root-%s-%s", r.ID, strings.ToLower(l), strings.ToLower(iata)),
					Name: fmt.Sprintf("%s-root replica at %s", l, iata),
					Ops: []scenario.Op{{
						Op: scenario.OpAddRoot, Letter: l, Host: host, IATA: iata,
						From: r.From, Until: r.Until,
					}},
				})
			}
		}
	case FamilySpecs:
		specs = r.Specs
	}
	if len(specs) == 0 {
		return nil, skipped, fmt.Errorf("sweep %q: family %q expanded to zero specs", r.ID, r.Family)
	}
	if len(specs) > MaxSpecs {
		return nil, skipped, fmt.Errorf("sweep %q: %d specs exceeds limit of %d", r.ID, len(specs), MaxSpecs)
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, skipped, fmt.Errorf("sweep %q: %w", r.ID, err)
		}
		if seen[s.ID] {
			return nil, skipped, fmt.Errorf("sweep %q: duplicate spec id %q", r.ID, s.ID)
		}
		seen[s.ID] = true
	}
	return specs, skipped, nil
}

// depeerCandidates returns the default depeer_each candidate set: every
// provider that served CANTV transit during any campaign month, sorted.
func (r *Request) depeerCandidates(w *world.World) []bgp.ASN {
	if len(r.ASNs) > 0 {
		out := make([]bgp.ASN, len(r.ASNs))
		for i, a := range r.ASNs {
			out[i] = bgp.ASN(a)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	lo, hi := w.Config.TraceStart, w.Config.TraceEnd
	if w.Config.ChaosStart.Before(lo) {
		lo = w.Config.ChaosStart
	}
	if hi.Before(w.Config.ChaosEnd) {
		hi = w.Config.ChaosEnd
	}
	set := map[bgp.ASN]bool{}
	for m := lo; !hi.Before(m); m = m.Add(1) {
		for _, asn := range world.CANTVProvidersAt(m) {
			set[asn] = true
		}
	}
	out := make([]bgp.ASN, 0, len(set))
	for asn := range set {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// slug lowercases a display name into the scenario id alphabet.
func slug(name string) string {
	var b strings.Builder
	lastDash := true // suppress leading dashes
	for _, c := range strings.ToLower(name) {
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			b.WriteRune(c)
			lastDash = false
		case !lastDash:
			b.WriteByte('-')
			lastDash = true
		}
	}
	return strings.TrimSuffix(b.String(), "-")
}
