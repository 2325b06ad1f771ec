package replica

import (
	"strings"
	"testing"
	"time"

	"resilientdb/internal/consensus"
	"resilientdb/internal/crypto"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

func validConfig(t *testing.T) Config {
	t.Helper()
	dir, err := crypto.NewDirectory(crypto.NoSig(), [32]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewInproc()
	return Config{
		ID:        0,
		N:         4,
		Protocol:  PBFT,
		Directory: dir,
		Endpoint:  net.Endpoint(types.ReplicaNode(0), 3, 16),
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"valid", func(c *Config) {}, ""},
		{"too few replicas", func(c *Config) { c.N = 3 }, "n ≥ 4"},
		{"id out of range", func(c *Config) { c.ID = 9 }, "out of range"},
		{"zero protocol is PBFT", func(c *Config) { c.Protocol = 0 }, ""},
		{"bad protocol", func(c *Config) { c.Protocol = 7 }, "protocol 7"},
		{"sharded execute accepted", func(c *Config) { c.ExecuteThreads = 4 }, ""},
		{"folded execute accepted", func(c *Config) { c.ExecuteThreads = -1 }, ""},
		{"folded batch accepted", func(c *Config) { c.BatchThreads = -1 }, ""},
		{"negative execute threads", func(c *Config) { c.ExecuteThreads = -2 }, "ExecuteThreads"},
		{"negative batch threads", func(c *Config) { c.BatchThreads = -2 }, "BatchThreads"},
		{"verify threads ignored", func(c *Config) { c.VerifyThreads = -2 }, ""},
		{"negative pipeline depth", func(c *Config) { c.ExecPipelineDepth = -1 }, "ExecPipelineDepth"},
		{"negative batch size", func(c *Config) { c.BatchSize = -1 }, "BatchSize"},
		{"missing directory", func(c *Config) { c.Directory = nil }, "Directory"},
		{"missing endpoint", func(c *Config) { c.Endpoint = nil }, "Endpoint"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := validConfig(t)
			tt.mutate(&cfg)
			_, err := New(cfg)
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("New() = %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("New() = %v, want error containing %q", err, tt.wantErr)
			}
		})
	}
}

// TestDefaultsApplied: a Config with only its required fields is the
// paper's standard replica (Section 5.2), and filling it again changes
// nothing, a folded stage included.
func TestDefaultsApplied(t *testing.T) {
	r, err := New(validConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name      string
		got, want int
	}{
		{"BatchThreads", r.cfg.BatchThreads, 2},
		{"ExecuteThreads", r.cfg.ExecuteThreads, 1},
		{"ExecPipelineDepth", r.cfg.ExecPipelineDepth, 1},
		{"BatchSize", r.cfg.BatchSize, 100},
		{"CheckpointInterval", int(r.cfg.CheckpointInterval), 100},
	} {
		if f.got != f.want {
			t.Errorf("default %s = %d, want %d", f.name, f.got, f.want)
		}
	}
	if !r.IsPrimary() {
		t.Fatal("replica 0 should lead view 0")
	}

	folded := r.cfg
	folded.BatchThreads, folded.ExecuteThreads = -1, -1
	again := folded
	if err := again.fill(); err != nil {
		t.Fatal(err)
	}
	if again != folded {
		t.Fatalf("fill is not idempotent:\n%+v\n%+v", folded, again)
	}
}

// TestZyzzyvaProtocolRefused: no replica runs Zyzzyva. A config naming it
// (Protocol 2) is refused, with the error pointing at the simulator, where
// Zyzzyva lives.
func TestZyzzyvaProtocolRefused(t *testing.T) {
	cfg := validConfig(t)
	cfg.Protocol = 2
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "internal/sim") {
		t.Fatalf("New with Zyzzyva's protocol value = %v, want a refusal naming internal/sim", err)
	}
}

func TestStartStopIdempotent(t *testing.T) {
	r, err := New(validConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	r.Stop()
	r.Stop() // second Stop must be a no-op, not a panic
	s := r.Stats()
	if s.TxnsExecuted != 0 {
		t.Fatalf("idle replica executed %d txns", s.TxnsExecuted)
	}
}

// TestNewViewRestartsWatchdog: the progress timer restarts when a view is
// entered. A replica that joins a view change on f+1 votes never backed its
// own timer off, so it enters the new view already a time-out idle with
// clients still waiting; if its watchdog's next tick read that as the new
// primary's silence it would vote for the view after, alone, and drop the
// new view's traffic from then on (chaos' silent-primary run lost replica 3
// this way, heights [16658 16658 16658 1331]).
func TestNewViewRestartsWatchdog(t *testing.T) {
	cfg := validConfig(t)
	cfg.ViewTimeout = time.Minute
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.pendingHint.Store(true)
	r.lastProgress.Store(time.Now().Add(-2 * cfg.ViewTimeout).UnixNano())
	var out consensus.Out
	out.ViewChanged(1)
	r.handleActions(&out)
	if idle := time.Since(time.Unix(0, r.lastProgress.Load())); idle >= cfg.ViewTimeout {
		t.Fatalf("a replica that just entered view 1 counts %v without progress against it, time-out %v", idle, cfg.ViewTimeout)
	}
	if v := r.watchedView.Load(); v != 1 {
		t.Fatalf("the watchdog would report its next time-out for view %d, want 1", v)
	}
}

func TestStageStringNames(t *testing.T) {
	want := map[Stage]string{
		StageInput: "input", StageBatch: "batch", StageWorker: "worker",
		StageExecute: "execute", StageCheckpoint: "checkpoint", StageOutput: "output",
	}
	for stage, name := range want {
		if stage.String() != name {
			t.Fatalf("Stage(%d).String() = %q, want %q", stage, stage.String(), name)
		}
	}
}

// TestDecodeFailuresSplitFromAuthFailures pins the stats split: malformed
// bodies must land in DecodeFailures, not AuthFailures, so garbage
// traffic cannot mask a real forgery signal.
func TestDecodeFailuresSplitFromAuthFailures(t *testing.T) {
	r, err := New(validConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	// A Prepare body must be 8+8+32+2 bytes; 3 bytes cannot decode.
	r.route(&types.Envelope{
		From: types.ReplicaNode(1),
		To:   types.ReplicaNode(0),
		Type: types.MsgPrepare,
		Body: []byte{1, 2, 3},
	})
	s := r.Stats()
	if s.DecodeFailures != 1 {
		t.Fatalf("DecodeFailures = %d, want 1", s.DecodeFailures)
	}
	if s.AuthFailures != 0 {
		t.Fatalf("AuthFailures = %d, want 0 (decode garbage must not count as auth)", s.AuthFailures)
	}
}

// TestSendAfterStopDoesNotPanic: a producer that outlives Stop (the
// watchdog, a late execution) must drop its envelope cleanly — the closed
// endpoint refuses it. TestStopWhileSending races the two.
func TestSendAfterStopDoesNotPanic(t *testing.T) {
	r, err := New(validConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	r.Stop()
	before := r.Stats().MsgsOut
	r.send(&types.Envelope{
		From: types.ReplicaNode(0),
		To:   types.ReplicaNode(1),
		Type: types.MsgPrepare,
	})
	if got := r.Stats().MsgsOut; got != before {
		t.Fatalf("MsgsOut grew from %d to %d after Stop", before, got)
	}
}
