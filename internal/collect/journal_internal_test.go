package collect

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestParseManifestRoundTrip pins the manifest schema: what the
// journal writes, recovery accepts.
func TestParseManifestRoundTrip(t *testing.T) {
	in := JournalManifest{
		RunID: "run-1", Epoch: 7, World: 16,
		TimingMode: 1, TimingBase: 1.01,
		CreatedSec: 1754600000.25, State: "collecting",
	}
	data, err := json.Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := parseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if *out != in {
		t.Fatalf("round trip: %+v != %+v", *out, in)
	}
}

// TestParseManifestRejectsHostileInput: recovery reads the journal
// directory with the same distrust as the wire.
func TestParseManifestRejectsHostileInput(t *testing.T) {
	for _, tc := range []struct{ name, body string }{
		{"not json", "not json"},
		{"empty run", `{"run":"","nranks":2,"state":"collecting"}`},
		{"path escape", `{"run":"../evil","nranks":2,"state":"collecting"}`},
		{"dotfile", `{"run":".hidden","nranks":2,"state":"collecting"}`},
		{"zero world", `{"run":"r","nranks":0,"state":"collecting"}`},
		{"huge world", `{"run":"r","nranks":99999999,"state":"collecting"}`},
		{"bad state", `{"run":"r","nranks":2,"state":"exploded"}`},
		{"negative base", `{"run":"r","nranks":2,"state":"collecting","timing_base":-3}`},
	} {
		if _, err := parseManifest([]byte(tc.body)); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.body)
		}
	}
}

// FuzzManifest: parseManifest must never panic and must only accept
// manifests whose identity fields survive its own validation rules.
func FuzzManifest(f *testing.F) {
	f.Add([]byte(`{"run":"demo","epoch":1,"nranks":8,"timing_mode":0,"timing_base":0,"created_unix":1.7e9,"state":"collecting"}`))
	f.Add([]byte(`{"run":"demo","nranks":1,"state":"finalized"}`))
	f.Add([]byte(`{"run":"x","nranks":2,"state":"salvaged","reason":"deadline"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"run":"../../etc","nranks":2,"state":"collecting"}`))
	f.Add([]byte(`{"run":"r","nranks":-1,"state":"collecting"}`))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return
		}
		if !runIDOK(m.RunID) || strings.ContainsAny(m.RunID, "/\\") {
			t.Fatalf("accepted hostile run id %q", m.RunID)
		}
		if m.World < 1 {
			t.Fatalf("accepted world size %d", m.World)
		}
		switch m.State {
		case "collecting", "finalized", "salvaged", "failed":
		default:
			t.Fatalf("accepted state %q", m.State)
		}
	})
}
