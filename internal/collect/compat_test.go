package collect_test

import (
	"bytes"
	"net"
	"testing"
	"time"

	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/tracetest"
	"github.com/hpcrepro/pilgrim/internal/wire"
)

// v1Send plays a Version-1 producer for one rank: raw frames over a
// raw TCP connection, no span context, no clock echo — exactly the
// bytes an old binary would put on the wire.
func v1Send(t *testing.T, addr, runID string, world int, s *core.Snapshot) *wire.Ack {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	h := &wire.Hello{Version: 1, RunID: runID, WorldSize: world, Rank: s.Rank}
	if err := wire.WriteFrame(conn, wire.TypeHello, h.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.TypeSnapshot, wire.EncodeSnapshot(s)); err != nil {
		t.Fatal(err)
	}
	typ, body, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TypeAck {
		t.Fatalf("v1 rank %d got frame 0x%02x, want ack", s.Rank, typ)
	}
	ack, err := wire.DecodeAck(body)
	if err != nil {
		t.Fatalf("v1 rank %d ack: %v", s.Rank, err)
	}
	return ack
}

// TestV1ClientCompat is the backward-compat contract: a Version-1
// producer (no span-context trailer) against the Version-2 collector
// must (a) get v1-shaped acks — no trailing timestamps that would trip
// an old DecodeAck's trailing-bytes check, (b) finalize to the exact
// bytes core.FinalizeSnapshots produces, and (c) land in health phase
// "finalized" like any other run.
func TestV1ClientCompat(t *testing.T) {
	const n = 4
	snaps := traceWorkload(t, n)
	srv := startServer(t, collect.Config{})

	for _, s := range snaps {
		ack := v1Send(t, srv.Addr(), "v1run", n, s)
		if ack.Status != wire.AckOK {
			t.Fatalf("rank %d ack status %d, want OK", s.Rank, ack.Status)
		}
		// The collector must answer in kind: a v1 hello gets an ack with
		// no timestamp trailer, because a real v1 DecodeAck rejects
		// trailing bytes.
		if ack.RecvNs != 0 || ack.SendNs != 0 {
			t.Fatalf("rank %d v1 ack carries timestamps (%d, %d)", s.Rank, ack.RecvNs, ack.SendNs)
		}
	}

	// Fetch the trace over a v1 wait (wait frames are unversioned).
	data, err := client(srv, "v1run", n).WaitTrace()
	if err != nil {
		t.Fatal(err)
	}
	local, _ := core.FinalizeSnapshots(snaps, core.Options{}, nil)
	if want := tracetest.Bytes(t, local); !bytes.Equal(data, want) {
		t.Fatalf("v1-ingested trace differs from local finalize: %d vs %d bytes", len(data), len(want))
	}

	h, ok := srv.Health("v1run")
	if !ok {
		t.Fatal("no health for v1 run")
	}
	if h.Phase != "finalized" {
		t.Fatalf("v1 run health phase %q, want finalized", h.Phase)
	}
	if h.RanksSeen != n {
		t.Fatalf("v1 run ranks_seen %d, want %d", h.RanksSeen, n)
	}
	// No v2 client ever spoke: the clock estimator must be empty.
	if h.ClockSamples != 0 {
		t.Fatalf("v1-only run has %d clock samples", h.ClockSamples)
	}
}

// TestV1DuplicateAndMixedVersions: v1 and v2 producers interleaved on
// one run — dedupe and merge are version-blind, and the v2 side still
// feeds the clock estimator.
func TestV1DuplicateAndMixedVersions(t *testing.T) {
	const n = 2
	snaps := traceWorkload(t, n)
	srv := startServer(t, collect.Config{})

	// Rank 0 arrives via v1, twice: second ack is a duplicate.
	if ack := v1Send(t, srv.Addr(), "mixed", n, snaps[0]); ack.Status != wire.AckOK {
		t.Fatalf("first v1 send status %d", ack.Status)
	}
	if ack := v1Send(t, srv.Addr(), "mixed", n, snaps[0]); ack.Status != wire.AckDuplicate {
		t.Fatalf("v1 re-send status %d, want duplicate", ack.Status)
	}
	// Rank 1 arrives via the current (v2) client.
	if err := client(srv, "mixed", n).SendSnapshot(snaps[1]); err != nil {
		t.Fatal(err)
	}
	data, err := client(srv, "mixed", n).WaitTrace()
	if err != nil {
		t.Fatal(err)
	}
	local, _ := core.FinalizeSnapshots(snaps, core.Options{}, nil)
	if want := tracetest.Bytes(t, local); !bytes.Equal(data, want) {
		t.Fatal("mixed-version run differs from local finalize")
	}
	if got := srv.Metrics().IngestSnapshots.Load(); got != n {
		t.Fatalf("merged %d snapshots, want %d", got, n)
	}
}
