package collect

import (
	"strings"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/framelog"
)

// TestParseManifestRoundTrip pins the manifest schema: what the
// journal writes, recovery accepts.
func TestParseManifestRoundTrip(t *testing.T) {
	in := framelog.Manifest{
		RunID: "run-1", Epoch: 7, World: 16,
		TimingMode: 1, TimingBase: 1.01,
		CreatedSec: 1754600000.25, State: "collecting",
	}
	d := framelog.OSDir(t.TempDir())
	if err := d.WriteManifest(&in, false); err != nil {
		t.Fatal(err)
	}
	jr, err := d.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if out := jr.Manifest(); out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
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
		{"lossy base 0.5", `{"run":"r","nranks":2,"state":"collecting","timing_mode":1,"timing_base":0.5}`},
		{"timing mode 5", `{"run":"r","nranks":2,"state":"collecting","timing_mode":5}`},
	} {
		if _, err := framelog.ParseManifest([]byte(tc.body)); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.body)
		}
	}
}

// FuzzManifest: framelog.ParseManifest must never panic and must only accept
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
		m, err := framelog.ParseManifest(data)
		if err != nil {
			return
		}
		if !framelog.ValidRunID(m.RunID) || strings.ContainsAny(m.RunID, "/\\") {
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
