// Package scenario is the counterfactual what-if engine: declarative
// JSON scenario specs compile into world.ScenarioPlan overlays, the
// paper's measurement campaigns re-run under them, and the result is a
// deterministic baseline-vs-scenario diff — per-month RTT deltas,
// reachability changes, and root-catchment shifts. The questions it
// answers are the ones the related IXP-growth and conflict-depeering
// studies ask of such datasets: what if CANTV had joined the LatAm
// IXP fabric, what if a submarine cable had been cut, what if the
// root replicas had stayed.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"vzlens/internal/bgp"
	"vzlens/internal/months"
)

// Op names accepted in a scenario spec.
const (
	OpAddLink     = "add_link"     // a, b, kind; optional from/until
	OpRemoveLink  = "remove_link"  // a, b, kind; optional from/until
	OpDepeer      = "depeer"       // asn; optional from/until
	OpMoveAS      = "move_as"      // asn, iata; optional from/until
	OpAddGPDNS    = "add_gpdns"    // host, iata; optional from/until
	OpRemoveGPDNS = "remove_gpdns" // iata; optional from/until
	OpAddRoot     = "add_root"     // letter, host, iata; optional from/until
	OpRemoveRoot  = "remove_root"  // letter, iata; optional from/until
	OpShiftEvent  = "shift_event"  // months (CANTV transit timeline shift)
)

// Op is one declarative operation in a scenario spec. Fields beyond Op
// are op-specific; the decoder rejects unknown fields outright and
// Validate rejects fields a given op does not take.
type Op struct {
	Op string `json:"op"`

	A      uint32 `json:"a,omitempty"`      // link endpoints
	B      uint32 `json:"b,omitempty"`      //
	Kind   string `json:"kind,omitempty"`   // "p2c" | "p2p"
	ASN    uint32 `json:"asn,omitempty"`    // depeer / move_as subject
	IATA   string `json:"iata,omitempty"`   // city for moves and sites
	Letter string `json:"letter,omitempty"` // root letter "A".."M"
	Host   uint32 `json:"host,omitempty"`   // hosting AS for added sites
	From   string `json:"from,omitempty"`   // window start "YYYY-MM"
	Until  string `json:"until,omitempty"`  // window end (exclusive)
	Months int    `json:"months,omitempty"` // shift_event offset
}

// Spec is a declarative counterfactual scenario, the JSON document
// POST /api/scenarios accepts and -scenario-file preloads.
type Spec struct {
	ID          string `json:"id"`
	Name        string `json:"name,omitempty"`
	Description string `json:"description,omitempty"`
	Ops         []Op   `json:"ops"`
}

// maxOps bounds a spec so a hostile POST cannot compile into an
// unbounded per-month edit list.
const maxOps = 64

// ParseSpec decodes and structurally validates a scenario spec.
// Decoding is strict — unknown fields, unknown ops, malformed months,
// duplicate or directly conflicting ops are all errors — so a spec
// that parses is safe to compile. ParseSpec never panics on any input
// (FuzzScenarioSpec holds it to that).
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: decode spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after spec document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpecsLenient reads one or more scenario specs from a file: either
// a single spec object or a JSON array of them (the -scenario-file
// format). It keeps going past bad entries: it returns every spec that
// validates plus one error per entry that does not, each error carrying
// the entry's position and (when recoverable) its declared id. A
// duplicate id — even of an invalid earlier entry — is itself an error,
// so the valid subset is always directly servable, and a caller that
// wants the whole file fails on len(errs) > 0.
func LoadSpecsLenient(path string) (specs []*Spec, errs []error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, []error{fmt.Errorf("scenario: %w", err)}
	}
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 || trimmed[0] != '[' {
		s, err := ParseSpec(data)
		if err != nil {
			return nil, []error{fmt.Errorf("scenario: %s: %w", path, err)}
		}
		return []*Spec{s}, nil
	}
	var raws []json.RawMessage
	if err := json.Unmarshal(trimmed, &raws); err != nil {
		// The array itself is malformed: nothing inside it is salvageable.
		return nil, []error{fmt.Errorf("scenario: decode %s: %w", path, err)}
	}
	seen := map[string]bool{}
	for i, raw := range raws {
		s, err := ParseSpec(raw)
		if err != nil {
			errs = append(errs, fmt.Errorf("scenario: %s entry %d (id %q): %w", path, i, looseID(raw), err))
			if id := looseID(raw); id != "" {
				seen[id] = true
			}
			continue
		}
		if seen[s.ID] {
			errs = append(errs, fmt.Errorf("scenario: %s entry %d: duplicate scenario id %q", path, i, s.ID))
			continue
		}
		seen[s.ID] = true
		specs = append(specs, s)
	}
	return specs, errs
}

// looseID best-effort extracts the "id" field from a spec document that
// failed strict parsing, so lenient-load errors can still name the
// entry they describe.
func looseID(raw []byte) string {
	var probe struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return ""
	}
	return probe.ID
}

// Key derives the spec's content-addressed identity: the scenario ID
// plus a digest of its canonical JSON form. Two specs with equal Keys
// produce identical plans, so the key scopes caches and the result
// store — a re-POSTed spec with the same id but different ops gets a
// different key and never serves the old diff.
func (s *Spec) Key() string {
	canon, _ := json.Marshal(s)
	sum := sha256.Sum256(canon)
	return s.ID + "-" + hex.EncodeToString(sum[:6])
}

// Validate checks the spec structurally: well-formed ID, known ops
// with exactly their required fields, parsable windows, no duplicate
// or directly conflicting ops. Semantic checks that need a world (do
// the ASNs exist?) live in Compile.
func (s *Spec) Validate() error {
	if err := validateID(s.ID); err != nil {
		return err
	}
	if len(s.Ops) == 0 {
		return fmt.Errorf("scenario %q: no ops", s.ID)
	}
	if len(s.Ops) > maxOps {
		return fmt.Errorf("scenario %q: %d ops exceeds limit of %d", s.ID, len(s.Ops), maxOps)
	}
	seen := map[string]bool{}
	for i, op := range s.Ops {
		if err := op.validate(); err != nil {
			return fmt.Errorf("scenario %q op %d: %w", s.ID, i, err)
		}
		// Exact duplicates are always a spec bug.
		key := fmt.Sprintf("%+v", op)
		if seen[key] {
			return fmt.Errorf("scenario %q op %d: duplicate of an earlier op", s.ID, i)
		}
		seen[key] = true
	}
	if err := s.checkConflicts(); err != nil {
		return err
	}
	return nil
}

// validateID enforces lowercase-kebab scenario IDs so they embed
// safely in URLs and store keys.
func validateID(id string) error {
	if id == "" {
		return fmt.Errorf("scenario: empty id")
	}
	if len(id) > 64 {
		return fmt.Errorf("scenario: id longer than 64 bytes")
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		ok := c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-'
		if !ok || (c == '-' && (i == 0 || i == len(id)-1)) {
			return fmt.Errorf("scenario: id %q must be lowercase kebab-case ([a-z0-9-])", id)
		}
	}
	return nil
}

// window parses the op's activity window, rejecting inversions.
func (op Op) window() (from, until months.Month, err error) {
	if op.From != "" {
		if from, err = months.Parse(op.From); err != nil {
			return 0, 0, fmt.Errorf("bad from %q: %w", op.From, err)
		}
	}
	if op.Until != "" {
		if until, err = months.Parse(op.Until); err != nil {
			return 0, 0, fmt.Errorf("bad until %q: %w", op.Until, err)
		}
	}
	if !from.IsZero() && !until.IsZero() && !from.Before(until) {
		return 0, 0, fmt.Errorf("window inverted: from %s not before until %s", op.From, op.Until)
	}
	return from, until, nil
}

// relKind maps the spec's kind string onto bgp's encoding.
func relKind(kind string) (bgp.RelKind, error) {
	switch kind {
	case "p2c":
		return bgp.ProviderCustomer, nil
	case "p2p":
		return bgp.PeerPeer, nil
	default:
		return 0, fmt.Errorf("unknown link kind %q (want \"p2c\" or \"p2p\")", kind)
	}
}

// validate checks one op's fields.
func (op Op) validate() error {
	if _, _, err := op.window(); err != nil {
		return err
	}
	need := func(cond bool, what string) error {
		if !cond {
			return fmt.Errorf("%s: %s", op.Op, what)
		}
		return nil
	}
	switch op.Op {
	case OpAddLink, OpRemoveLink:
		if _, err := relKind(op.Kind); err != nil {
			return fmt.Errorf("%s: %w", op.Op, err)
		}
		if err := need(op.A != 0 && op.B != 0, "both link endpoints a and b required"); err != nil {
			return err
		}
		return need(op.A != op.B, "self-loop")
	case OpDepeer:
		return need(op.ASN != 0, "asn required")
	case OpMoveAS:
		if err := need(op.ASN != 0, "asn required"); err != nil {
			return err
		}
		return need(op.IATA != "", "iata required")
	case OpAddGPDNS:
		if err := need(op.Host != 0, "host AS required"); err != nil {
			return err
		}
		return need(op.IATA != "", "iata required")
	case OpRemoveGPDNS:
		return need(op.IATA != "", "iata required")
	case OpAddRoot:
		if err := need(validLetter(op.Letter), `letter must be one of "A".."M"`); err != nil {
			return err
		}
		if err := need(op.Host != 0, "host AS required"); err != nil {
			return err
		}
		return need(op.IATA != "", "iata required")
	case OpRemoveRoot:
		if err := need(validLetter(op.Letter), `letter must be one of "A".."M"`); err != nil {
			return err
		}
		return need(op.IATA != "", "iata required")
	case OpShiftEvent:
		if err := need(op.Months != 0, "months offset required"); err != nil {
			return err
		}
		return need(op.Months >= -120 && op.Months <= 120, "months offset outside ±120")
	case "":
		return fmt.Errorf("missing op")
	default:
		return fmt.Errorf("unknown op %q", op.Op)
	}
}

func validLetter(l string) bool {
	return len(l) == 1 && l[0] >= 'A' && l[0] <= 'M'
}

// checkConflicts rejects directly contradictory op pairs: adding and
// removing the same link (or the same root replica / GPDNS site) over
// overlapping windows, relocating one AS twice in overlapping windows,
// or more than one shift_event. Such specs have no well-defined
// meaning and would otherwise depend silently on op order.
func (s *Spec) checkConflicts() error {
	overlap := func(a, b Op) bool {
		af, au, _ := a.window()
		bf, bu, _ := b.window()
		if !au.IsZero() && !bf.IsZero() && !bf.Before(au) {
			return false
		}
		if !bu.IsZero() && !af.IsZero() && !af.Before(bu) {
			return false
		}
		return true
	}
	sameLink := func(a, b Op) bool {
		return a.Kind == b.Kind &&
			(a.A == b.A && a.B == b.B || a.A == b.B && a.B == b.A)
	}
	shifts := 0
	for i, a := range s.Ops {
		if a.Op == OpShiftEvent {
			if shifts++; shifts > 1 {
				return fmt.Errorf("scenario %q: multiple shift_event ops", s.ID)
			}
		}
		for _, b := range s.Ops[i+1:] {
			if !overlap(a, b) {
				continue
			}
			conflict := false
			switch {
			case a.Op == OpAddLink && b.Op == OpRemoveLink || a.Op == OpRemoveLink && b.Op == OpAddLink:
				conflict = sameLink(a, b)
			case a.Op == OpMoveAS && b.Op == OpMoveAS:
				conflict = a.ASN == b.ASN
			case a.Op == OpAddGPDNS && b.Op == OpRemoveGPDNS || a.Op == OpRemoveGPDNS && b.Op == OpAddGPDNS:
				conflict = a.IATA == b.IATA
			case a.Op == OpAddRoot && b.Op == OpRemoveRoot || a.Op == OpRemoveRoot && b.Op == OpAddRoot:
				conflict = a.Letter == b.Letter && a.IATA == b.IATA
			}
			if conflict {
				return fmt.Errorf("scenario %q: ops %s and %s conflict over an overlapping window",
					s.ID, a.Op, b.Op)
			}
		}
	}
	return nil
}
