package deploy

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"resilientdb/internal/cluster"
	"resilientdb/internal/crypto"
	"resilientdb/internal/types"
)

// parseArgs registers the shared flags on a fresh flag set and parses args.
func parseArgs(isReplica bool, args ...string) (*Flags, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, isReplica)
	return f, fs.Parse(args)
}

func parse(t *testing.T, isReplica bool, args ...string) *Flags {
	t.Helper()
	f, err := parseArgs(isReplica, args...)
	if err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f
}

func TestResolve(t *testing.T) {
	const four = "127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003"
	// A deployment runs PBFT: -protocol is no flag at all, so naming any
	// protocol, on a replica or a client, is a usage error.
	const noProtocolFlag = "flag provided but not defined: -protocol"
	tests := []struct {
		name      string
		isReplica bool
		args      []string
		wantErr   string
	}{
		{name: "replica defaults", isReplica: true, args: []string{"-peers", four}},
		{name: "client zyzzyva", args: []string{"-replicas", four, "-protocol", "zyzzyva"}, wantErr: noProtocolFlag},
		{name: "whitespace in the list", args: []string{"-replicas", " 127.0.0.1:7000, 127.0.0.1:7001 ,127.0.0.1:7002,\t127.0.0.1:7003"}},
		{name: "unknown protocol", isReplica: true, args: []string{"-peers", four, "-protocol", "pbft"}, wantErr: noProtocolFlag},
		{name: "too few peers", isReplica: true, args: []string{"-peers", "127.0.0.1:7000,127.0.0.1:7001"}, wantErr: "-peers must list exactly 4"},
		{name: "too many replicas", args: []string{"-n", "4", "-replicas", four + ",127.0.0.1:7004"}, wantErr: "-replicas must list exactly 4"},
		{name: "empty list", args: nil, wantErr: "-replicas must list exactly 4"},
		// A peer's writer sends what is queued as one frame: there is no
		// transport batching to tune.
		{name: "net-batch", isReplica: true, args: []string{"-peers", four, "-net-batch", "1"}, wantErr: "flag provided but not defined: -net-batch"},
		{name: "net-linger", args: []string{"-replicas", four, "-net-linger", "1ms"}, wantErr: "flag provided but not defined: -net-linger"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f, err := parseArgs(tt.isReplica, tt.args...)
			var d *Deployment
			if err == nil {
				d, err = f.Resolve()
			}
			if tt.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
					t.Fatalf("parse and Resolve() = %v, want error containing %q", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(d.Addrs) != 4 {
				t.Fatalf("resolved %d addresses, want 4", len(d.Addrs))
			}
			for i := 0; i < 4; i++ {
				want := fmt.Sprintf("127.0.0.1:700%d", i)
				if got := d.Addrs[types.ReplicaNode(types.ReplicaID(i))]; got != want {
					t.Fatalf("replica %d address = %q, want %q", i, got, want)
				}
			}
		})
	}
}

// TestSeedMatchesCluster pins the one seed rule: an in-process cluster and
// a TCP deployment started with the same seed derive key material that
// verifies each other's signatures — replica-to-replica MACs and client
// signatures alike — including seeds past 24 bits and negative ones, where
// the cluster used to fold fewer seed bytes than the binaries.
func TestSeedMatchesCluster(t *testing.T) {
	for _, seed := range []int64{1, 13, 1 << 30, -1} {
		c, err := cluster.New(cluster.Options{N: 4, Clients: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		clusterDir := c.Directory()
		c.Stop()
		d, err := parse(t, true, "-seed", strconv.FormatInt(seed, 10), "-peers", "a,b,c,d").Resolve()
		if err != nil {
			t.Fatal(err)
		}
		r0, r1 := types.ReplicaNode(0), types.ReplicaNode(1)
		client := types.ClientNode(7)
		msg := []byte("same seed, same keys")
		for _, pair := range []struct {
			name           string
			signer, verify *crypto.Directory
		}{
			{"cluster signs, deployment verifies", clusterDir, d.Directory},
			{"deployment signs, cluster verifies", d.Directory, clusterDir},
		} {
			for _, link := range []struct{ from, to types.NodeID }{{r0, r1}, {client, r0}} {
				sig, err := pair.signer.NodeAuth(link.from).Sign(link.to, msg)
				if err != nil {
					t.Fatal(err)
				}
				if err := pair.verify.NodeAuth(link.to).Verify(link.from, msg, sig); err != nil {
					t.Errorf("seed %d, %s, %v -> %v: %v", seed, pair.name, link.from, link.to, err)
				}
			}
		}
	}
}
