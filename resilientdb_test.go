package resilientdb_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"resilientdb"
)

// TestPublicAPIClusterLifecycle drives the full public surface: build a
// cluster, run load, verify ledgers, inspect blocks.
func TestPublicAPIClusterLifecycle(t *testing.T) {
	wl := resilientdb.DefaultWorkload()
	wl.Records = 1000
	c, err := resilientdb.NewCluster(resilientdb.ClusterOptions{
		N:         4,
		Clients:   4,
		BatchSize: 8,
		Crypto:    resilientdb.RecommendedCrypto(),
		Workload:  wl,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	res := c.Run(context.Background(), time.Second)
	if res.Txns == 0 {
		t.Fatalf("no transactions: %s", res)
	}
	if err := c.VerifyLedgers(nil); err != nil {
		t.Fatal(err)
	}
	var blk resilientdb.Block = c.Replica(0).Ledger().Head()
	if blk.Height == 0 {
		t.Fatal("chain never grew")
	}
}

func TestPublicAPISimulate(t *testing.T) {
	res, err := resilientdb.Simulate(resilientdb.SimConfig{
		Protocol: resilientdb.SimPBFT,
		Replicas: 4,
		Clients:  800,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputTxns <= 0 {
		t.Fatalf("simulation produced no throughput: %+v", res)
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	exps := resilientdb.Experiments()
	if len(exps) < 12 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	if err := resilientdb.RunExperiment("does-not-exist", resilientdb.ScaleSmall, nil); !errors.Is(err, resilientdb.ErrUnknownExperiment) {
		t.Fatalf("unknown experiment error = %v", err)
	}
	if testing.Short() {
		t.Skip("experiment execution in -short mode")
	}
	var buf bytes.Buffer
	if err := resilientdb.RunExperiment("ablation-exec", resilientdb.ScaleSmall, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Ablation") {
		t.Fatalf("missing rendered table:\n%s", buf.String())
	}
}

func TestPublicAPICryptoPresets(t *testing.T) {
	for _, cfg := range []resilientdb.CryptoConfig{
		resilientdb.NoSig(), resilientdb.AllED25519(), resilientdb.AllRSA(), resilientdb.RecommendedCrypto(),
	} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("preset invalid: %+v: %v", cfg, err)
		}
	}
}
