package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseSpecValid(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"id": "test-ok",
		"ops": [
			{"op": "add_link", "a": 8048, "b": 3816, "kind": "p2p", "from": "2020-01"},
			{"op": "depeer", "asn": 6306, "from": "2019-01", "until": "2021-01"},
			{"op": "shift_event", "months": -12}
		]
	}`))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if spec.ID != "test-ok" || len(spec.Ops) != 3 {
		t.Fatalf("got id=%q ops=%d", spec.ID, len(spec.Ops))
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := []struct {
		name, json, wantErr string
	}{
		{"empty input", ``, "decode"},
		{"not json", `{{{`, "decode"},
		{"unknown top field", `{"id":"x1","bogus":1,"ops":[{"op":"depeer","asn":1}]}`, "decode"},
		{"unknown op field", `{"id":"x1","ops":[{"op":"depeer","asn":1,"extra":2}]}`, "decode"},
		{"trailing data", `{"id":"x1","ops":[{"op":"depeer","asn":1}]} {}`, "trailing"},
		{"empty id", `{"id":"","ops":[{"op":"depeer","asn":1}]}`, "empty id"},
		{"uppercase id", `{"id":"Bad","ops":[{"op":"depeer","asn":1}]}`, "kebab-case"},
		{"leading dash id", `{"id":"-bad","ops":[{"op":"depeer","asn":1}]}`, "kebab-case"},
		{"no ops", `{"id":"x1","ops":[]}`, "no ops"},
		{"unknown op", `{"id":"x1","ops":[{"op":"teleport","asn":1}]}`, "unknown op"},
		{"missing op", `{"id":"x1","ops":[{"asn":1}]}`, "missing op"},
		{"bad kind", `{"id":"x1","ops":[{"op":"add_link","a":1,"b":2,"kind":"c2p"}]}`, "unknown link kind"},
		{"missing endpoint", `{"id":"x1","ops":[{"op":"add_link","a":1,"kind":"p2p"}]}`, "endpoints"},
		{"self loop", `{"id":"x1","ops":[{"op":"add_link","a":1,"b":1,"kind":"p2p"}]}`, "self-loop"},
		{"depeer no asn", `{"id":"x1","ops":[{"op":"depeer"}]}`, "asn required"},
		{"move no city", `{"id":"x1","ops":[{"op":"move_as","asn":1}]}`, "iata required"},
		{"bad month", `{"id":"x1","ops":[{"op":"depeer","asn":1,"from":"2020-13"}]}`, "bad from"},
		{"inverted window", `{"id":"x1","ops":[{"op":"depeer","asn":1,"from":"2021-01","until":"2020-01"}]}`, "inverted"},
		{"bad letter", `{"id":"x1","ops":[{"op":"add_root","letter":"Z","host":1,"iata":"CCS"}]}`, "letter"},
		{"root no host", `{"id":"x1","ops":[{"op":"add_root","letter":"L","iata":"CCS"}]}`, "host"},
		{"shift zero", `{"id":"x1","ops":[{"op":"shift_event"}]}`, "months offset required"},
		{"shift huge", `{"id":"x1","ops":[{"op":"shift_event","months":500}]}`, "±120"},
		{"duplicate op", `{"id":"x1","ops":[{"op":"depeer","asn":1},{"op":"depeer","asn":1}]}`, "duplicate"},
		{"double shift", `{"id":"x1","ops":[{"op":"shift_event","months":1},{"op":"shift_event","months":2}]}`, "multiple shift_event"},
		{"add-remove same link", `{"id":"x1","ops":[
			{"op":"add_link","a":1,"b":2,"kind":"p2p"},
			{"op":"remove_link","a":2,"b":1,"kind":"p2p"}]}`, "conflict"},
		{"double move same as", `{"id":"x1","ops":[
			{"op":"move_as","asn":1,"iata":"CCS"},
			{"op":"move_as","asn":1,"iata":"MAR"}]}`, "conflict"},
		{"add-remove same root", `{"id":"x1","ops":[
			{"op":"add_root","letter":"L","host":1,"iata":"CCS"},
			{"op":"remove_root","letter":"L","iata":"CCS"}]}`, "conflict"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.json))
			if err == nil {
				t.Fatalf("ParseSpec accepted %s", tc.json)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestConflictDisjointWindowsOK pins that the conflict detector only
// fires on overlapping windows: add-then-remove of the same link in
// disjoint windows is a legitimate timeline.
func TestConflictDisjointWindowsOK(t *testing.T) {
	_, err := ParseSpec([]byte(`{"id":"x1","ops":[
		{"op":"add_link","a":1,"b":2,"kind":"p2p","from":"2018-01","until":"2019-01"},
		{"op":"remove_link","a":1,"b":2,"kind":"p2p","from":"2019-01"}]}`))
	if err != nil {
		t.Fatalf("disjoint windows rejected: %v", err)
	}
}

func TestSpecKeyTracksContent(t *testing.T) {
	a, err := ParseSpec([]byte(`{"id":"k1","ops":[{"op":"depeer","asn":8048}]}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec([]byte(`{"id":"k1","ops":[{"op":"depeer","asn":8048,"from":"2019-01"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() == b.Key() {
		t.Fatalf("same key %q for different ops", a.Key())
	}
	if !strings.HasPrefix(a.Key(), "k1-") {
		t.Fatalf("key %q does not embed the id", a.Key())
	}
	a2, _ := ParseSpec([]byte(`{"id":"k1","ops":[{"op":"depeer","asn":8048}]}`))
	if a.Key() != a2.Key() {
		t.Fatalf("key not deterministic: %q vs %q", a.Key(), a2.Key())
	}
}

// TestCannedSpecsParse holds the shipped testdata scenarios to the same
// strict validation as user input.
func TestCannedSpecsParse(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no canned scenarios found: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseSpec(data); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

// TestLoadSpecs: a clean file — one object or an array — comes back
// whole and without errors; a duplicate id or a missing file is an
// error.
func TestLoadSpecs(t *testing.T) {
	dir := t.TempDir()

	single := filepath.Join(dir, "one.json")
	os.WriteFile(single, []byte(`{"id":"solo","ops":[{"op":"depeer","asn":8048}]}`), 0o644)
	specs, errs := LoadSpecsLenient(single)
	if len(errs) != 0 || len(specs) != 1 || specs[0].ID != "solo" {
		t.Fatalf("single object: specs=%v errs=%v", specs, errs)
	}

	multi := filepath.Join(dir, "many.json")
	os.WriteFile(multi, []byte(`[
		{"id":"one","ops":[{"op":"depeer","asn":8048}]},
		{"id":"two","ops":[{"op":"depeer","asn":6306}]}]`), 0o644)
	specs, errs = LoadSpecsLenient(multi)
	if len(errs) != 0 || len(specs) != 2 {
		t.Fatalf("multi: specs=%v errs=%v", specs, errs)
	}

	dup := filepath.Join(dir, "dup.json")
	os.WriteFile(dup, []byte(`[
		{"id":"one","ops":[{"op":"depeer","asn":8048}]},
		{"id":"one","ops":[{"op":"depeer","asn":6306}]}]`), 0o644)
	specs, errs = LoadSpecsLenient(dup)
	if len(specs) != 1 || len(errs) != 1 || !strings.Contains(errs[0].Error(), "duplicate scenario id") {
		t.Fatalf("duplicate ids: specs=%v errs=%v", specs, errs)
	}

	if _, errs = LoadSpecsLenient(filepath.Join(dir, "missing.json")); len(errs) != 1 {
		t.Fatalf("missing file errs = %v", errs)
	}
}

// TestLoadSpecsLenient: the loader must return every valid spec and
// one error per bad entry naming its position and id.
func TestLoadSpecsLenient(t *testing.T) {
	dir := t.TempDir()

	mixed := filepath.Join(dir, "mixed.json")
	os.WriteFile(mixed, []byte(`[
		{"id":"good-one","ops":[{"op":"depeer","asn":8048}]},
		{"id":"BadCase","ops":[{"op":"depeer","asn":8048}]},
		{"id":"no-ops","ops":[]},
		{"id":"good-two","ops":[{"op":"depeer","asn":6306}]},
		{"id":"good-one","ops":[{"op":"depeer","asn":6306}]}]`), 0o644)
	specs, errs := LoadSpecsLenient(mixed)
	if len(specs) != 2 || specs[0].ID != "good-one" || specs[1].ID != "good-two" {
		t.Fatalf("valid subset = %v, want [good-one good-two]", specs)
	}
	if len(errs) != 3 {
		t.Fatalf("errs = %v, want 3", errs)
	}
	for want, part := range map[int]string{
		0: `entry 1 (id "BadCase")`,
		1: `entry 2 (id "no-ops")`,
		2: `duplicate scenario id "good-one"`,
	} {
		if !strings.Contains(errs[want].Error(), part) {
			t.Errorf("errs[%d] = %q, missing %q", want, errs[want], part)
		}
	}

	// A later valid spec reusing an invalid entry's id is still a
	// duplicate: serving it would silently shadow the entry the operator
	// meant to fix.
	shadow := filepath.Join(dir, "shadow.json")
	os.WriteFile(shadow, []byte(`[
		{"id":"shared","ops":[]},
		{"id":"shared","ops":[{"op":"depeer","asn":8048}]}]`), 0o644)
	specs, errs = LoadSpecsLenient(shadow)
	if len(specs) != 0 {
		t.Fatalf("shadowing spec served: %v", specs)
	}
	if len(errs) != 2 || !strings.Contains(errs[1].Error(), "duplicate") {
		t.Fatalf("shadow errs = %v", errs)
	}

	broken := filepath.Join(dir, "broken.json")
	os.WriteFile(broken, []byte(`[{"id":"one"`), 0o644)
	if specs, errs = LoadSpecsLenient(broken); len(specs) != 0 || len(errs) != 1 {
		t.Fatalf("malformed array: specs=%v errs=%v", specs, errs)
	}
}

// FuzzScenarioSpec drives the strict decoder with arbitrary bytes: it
// must reject or accept but never panic, and anything it accepts must
// re-validate and produce a stable key.
func FuzzScenarioSpec(f *testing.F) {
	f.Add([]byte(`{"id":"a1","ops":[{"op":"depeer","asn":8048}]}`))
	f.Add([]byte(`{"id":"b2","ops":[{"op":"add_link","a":1,"b":2,"kind":"p2p"}]}`))
	f.Add([]byte(`{"id":"c3","ops":[{"op":"shift_event","months":-6}]}`))
	f.Add([]byte(`{"id":"d4","ops":[{"op":"add_root","letter":"L","host":8048,"iata":"CCS","from":"2020-01"}]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"id":"x","ops":[{"op":"move_as","asn":1,"iata":"\\u0000"}]}`))
	paths, _ := filepath.Glob("testdata/*.json")
	for _, p := range paths {
		if data, err := os.ReadFile(p); err == nil {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted spec fails re-validation: %v", err)
		}
		if k := spec.Key(); k == "" || k != spec.Key() {
			t.Fatalf("unstable key %q", k)
		}
	})
}
